"""Wall-clock benchmark runner: real bytes through the real pipeline.

    python benchmarks/wall/run.py --all            # six workloads, end to end
    python benchmarks/wall/run.py --all --trace    # plus per-layer spans + micro
    python benchmarks/wall/run.py --micro          # isolated layer timings only
    python benchmarks/wall/run.py --workload git_disk --seed 11
    python benchmarks/wall/run.py --repeat-check   # two sets, compared

One workload runs per process (``--all`` starts one child per workload),
so ``peak_rss_mb`` and every cache are per workload. With ``--workload``
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# Import the benchmark as ``benchmarks.wall.*``: the script directory holds
# a ``trace.py`` that must not shadow the standard library's ``trace``.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.wall import compare, harness, micro  # noqa: E402
from benchmarks.wall.workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload in this process; JSON result on the last line."""
    storage_root = Path(args.storage_dir) if args.storage_dir else RESULTS / "storage"
    workload = WORKLOADS[args.workload](args.seed, storage_root, quick=args.quick)
    seconds = 1.0 if args.quick else args.seconds
    # The reference loop before and after shows machine drift beside the
    # numbers; it normalises nothing.
    record: dict = {"ref_loop_ms_before": micro.ref_loop_ms()}
    record.update(harness.measure(workload, seconds, bool(args.trace), RESULTS))
    record["ref_loop_ms_after"] = micro.ref_loop_ms()
    if args.trace:
        for name, (value, unit, mad) in micro.run(quick=args.quick).items():
            record["metrics"][name] = {"value": value, "unit": unit, "mad": mad}
    record["storage_dir"] = str(storage_root)
    record["config"] = workload.describe()
    record["flush_policy"] = "LogStorage: write + fsync + rename + fsync(dir), unchanged"

    names = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        raise SystemExit(f"run.py: metrics not produced: {missing}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print_record(record)
    for problem in record["problems"]:
        print(f"FAILED CHECK [{workload.name}]: {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            n: {"value": record["metrics"][n]["value"],
                "unit": record["metrics"][n]["unit"]}
            for n in names
        },
    }))
    return 0 if record["correct"] else 1


def print_record(record: dict) -> None:
    flag = " noisy" if record["noisy"] else ""
    print(
        f"== {record['workload']} seed={record['seed']} reps={record['reps']}"
        f" x {record['ops_per_rep']} ops, {record['samples']} samples,"
        f" negative control {'detected' if record['negative_control_detected'] else 'MISSED'}"
        f"{flag}; ref loop {record['ref_loop_ms_before']:.2f} ms before,"
        f" {record['ref_loop_ms_after']:.2f} ms after"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")


def run_all(args: argparse.Namespace, out: Path) -> int:
    """One child process per workload; the set lands in ``out``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    records, status = {}, 0
    for name in names:
        part = RESULTS / f"{name}.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(bool(args.trace))), "--out", str(part),
        ]
        if args.quick:
            command.append("--quick")
        if args.storage_dir:
            command += ["--storage-dir", args.storage_dir]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # The child's last line is the machine-readable result; the table
        # above it is what a person reads.
        sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stdout.flush()
        if child.returncode != 0:
            status = 1
        if part.exists():
            records[name] = json.loads(part.read_text())
    out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "workloads": records},
        indent=1,
    ))
    print(f"wrote {out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured time per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="traced pass: per-layer span and micro metrics")
    parser.add_argument("--micro", action="store_true",
                        help="isolated per-layer timings only")
    parser.add_argument("--quick", action="store_true",
                        help="short scripts, one second (self-tests)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the set twice and compare the two")
    parser.add_argument("--storage-dir",
                        help="where LogStorage writes (default: results/storage)")
    parser.add_argument("--out", help="write the full record here")
    args = parser.parse_args()

    if args.repeat_check:
        first, second = RESULTS / "repeat_a.json", RESULTS / "repeat_b.json"
        status = run_all(args, first) | run_all(args, second)
        return status | compare.main([str(first), str(second)])
    if args.all:
        out = Path(args.out) if args.out else RESULTS / "wall.json"
        status = run_all(args, out)
        if args.trace:
            compare.print_calibration(json.loads(out.read_text()))
        return status
    if args.workload:
        return run_workload(args)
    if args.micro:
        micro.print_table(micro.run(quick=args.quick))
        return 0
    parser.error("choose --workload NAME, --all, --micro or --repeat-check")
    return 2


if __name__ == "__main__":
    sys.exit(main())
