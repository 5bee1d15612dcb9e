"""Compare two result sets of the wall benchmark against its bounds.

    python benchmarks/wall/compare.py A.json B.json

``A`` is the base, ``B`` the candidate; both are files ``run.py --all``
wrote. For every workload and end-to-end metric the table gives both
values, the ratio B/A and a verdict against the bound ``BENCHMARK.json``
fixes for the metric:

- ``worse`` / ``better``: B is worse / better than A by more than the bound;
- ``same``: the difference is within the bound;
- ``unresolved``: the difference exceeds the bound, but so does the gap
  between the two halves of a run's own repetitions (``halves_gap``), so
  one run per side cannot tell a change from noise. Run more pairs.

Exact counts (``fail_ratio``, ``stored_bytes_per_pair``) must agree
exactly. The exit code is non-zero when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# Run as a script, the directory's ``trace.py`` would shadow the standard
# library's ``trace``; nothing here imports from the script directory.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

EXACT = ("fail_ratio", "stored_bytes_per_pair")


def verdict(metric: dict, base: dict, new: dict) -> str:
    a, b = base["value"], new["value"]
    # The share of the base by which the candidate is worse (negative = better).
    change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    bound = metric["bound"]
    if abs(change) <= bound:
        return "same"
    if max(base.get("halves_gap", 0.0), new.get("halves_gap", 0.0)) > bound:
        return "unresolved"
    return "worse" if change > 0 else "better"


def compare(spec: dict, base: dict, new: dict) -> int:
    worse = 0
    print(f"{'workload':18s} {'metric':22s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"{name:18s} missing from B")
            worse += 1
            continue
        a_metrics = base["workloads"][name]["metrics"]
        b_metrics = new["workloads"][name]["metrics"]
        for metric in spec["end_to_end"]:
            a, b = a_metrics[metric["name"]], b_metrics[metric["name"]]
            result = verdict(metric, a, b)
            worse += result == "worse"
            print(f"{name:18s} {metric['name']:22s} {a['value']:12.4f} "
                  f"{b['value']:12.4f} {b['value'] / a['value']:7.3f} "
                  f"{metric['bound']:6.2f}  {result}")
        for exact in EXACT:
            a, b = a_metrics[exact]["value"], b_metrics[exact]["value"]
            # More stored bytes or failures is a regression at any size.
            result = "same" if a == b else "worse" if b > a else "better"
            worse += result == "worse"
            print(f"{name:18s} {exact:22s} {a:12.4f} {b:12.4f} "
                  f"{'':>7s} {'exact':>6s}  {result}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# Model-vs-measured calibration (informational)
# ---------------------------------------------------------------------------


def calibration_rows(record: dict) -> list[tuple[str, float, float]]:
    """``(stage, modelled cycles, measured ns)`` per unit of work, from
    one traced workload record."""
    from repro.sim import costs

    metrics = record["metrics"]
    inclusive = record.get("inclusive_us_per_call", {})
    counts = record.get("counts", {})
    rows = []

    if inclusive.get("audit.seal_epoch"):
        rows.append(("SEAL_EPOCH_CYCLES /seal", costs.SEAL_EPOCH_CYCLES,
                     inclusive["audit.seal_epoch"] * 1e3))
    if inclusive.get("audit.append"):
        rows.append(("LOGGING_SEALDB_INSERT_CYCLES /tuple",
                     costs.LOGGING_SEALDB_INSERT_CYCLES,
                     inclusive["audit.append"] * 1e3))
    pair_calls = metrics["ssm.log.calls_per_op"]["value"]
    if pair_calls:
        base_ns = sum(
            metrics[f"{layer}.self_us_per_op"]["value"]
            for layer in ("http.parse", "core.pair", "ssm.log")
        ) / pair_calls * 1e3
        rows.append(("LOGGING_BASE_CYCLES /pair", costs.LOGGING_BASE_CYCLES, base_ns))
    checks = counts.get("checks_run")
    if checks and inclusive.get("core.checker.check"):
        modelled = costs.checking_cycles(
            counts["rows_scanned"], counts["invariant_evaluations"],
            counts["rows_vectorized"],
        ) / checks
        rows.append(("CHECK_*_CYCLES /pass", modelled,
                     inclusive["core.checker.check"] * 1e3))
    # An empty ecall is all transition: the traced sgx.ecall span also
    # holds the enclave-side glue of whatever the ecall does.
    rows.append(("transition_cost_cycles(1) /ecall",
                 costs.transition_cost_cycles(1),
                 metrics["micro.sgx.ecall_us"]["value"] * 1e3))
    return rows


def print_calibration(result_set: dict) -> None:
    """Cycles per measured nanosecond for each modelled stage. A model
    that is right in *shape* has one ratio for all stages (the machine's
    speed relative to the modelled 3.7 GHz core); a stage far from the
    median ratio is mis-weighted relative to the others."""
    table = []
    for name, record in result_set["workloads"].items():
        if "closure_ratio" not in record["metrics"]:
            continue
        for stage, cycles, ns in calibration_rows(record):
            table.append((name, stage, cycles, ns, cycles / ns))
    if not table:
        print("calibration: no traced records (run with --trace)")
        return
    median = statistics.median(row[4] for row in table)
    print(f"\n== model vs measured (informational); median {median:.3f} cycles/ns")
    print(f"{'workload':18s} {'stage':36s} {'model cycles':>13s} "
          f"{'measured ns':>12s} {'cycles/ns':>10s}")
    for name, stage, cycles, ns, ratio in table:
        off = ratio / median
        flag = "  <-- >3x off the median" if off > 3 or off < 1 / 3 else ""
        print(f"{name:18s} {stage:36s} {cycles:13.0f} {ns:12.0f} {ratio:10.3f}{flag}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    status = compare(spec, base, new)
    print_calibration(new)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
