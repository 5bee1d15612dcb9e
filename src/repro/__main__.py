"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo <git|owncloud|dropbox|messaging>``
    Run a service with an injected integrity violation and show LibSEAL
    detecting it (the §6.1/§6.2 scenarios).
``detect``
    Run the full attack-detection matrix and print the results table.
``perf <fig5a|fig7a|table2|table3>``
    Run one simulated performance experiment and print measured-vs-paper.
``inventory``
    Print the Table 1 code inventory for this reproduction.
``fuzz``
    Run the deterministic protocol-fuzzing harness against the TLS
    termination path (``--layer tls|http|service``, ``--cases N``,
    ``--seed S``), pumped by the production event loop. Exit status 1 if
    any mutation broke the typed-error contract.
``obs``
    Run a workload through the full TLS + audit pipeline with the
    observability plane installed and print the aggregated span tree and
    metrics table (``--workload``, ``--requests``, ``--check-interval``,
    ``--frontend N`` for an event-loop scheduler sample,
    ``--json``/``--prom`` for machine-readable output).
``bench-compare``
    Compare benchmark result summaries against the committed CI baseline
    (``benchmarks/baselines/ci_baseline.json``); write the verdicts to ``--output``.
    Exit status 1 on any regression or missing metric.
``chaos``
    Run the seeded chaos-soak scenario suite against the distributed
    ROTE audit path (``--family``, ``--seeds``, ``--seed-base``,
    ``--json FILE`` for the per-scenario verdicts,
    ``--check-determinism`` to re-run and compare event-trace digests).
    Exit status 1 on any safety/liveness-oracle violation or digest
    mismatch.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import print_experiment


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.bench.functional import detection_matrix

    rows = [r for r in detection_matrix() if r["service"] == args.service]
    if not rows:
        print(f"unknown service {args.service!r}", file=sys.stderr)
        return 2
    print_experiment(
        f"LibSEAL attack detection - {args.service}",
        ["attack", "result", "violated invariants"],
        [
            [r["attack"], "DETECTED" if r["detected"] else "clean",
             r["violated_invariants"]]
            for r in rows
        ],
    )
    return 0


def _cmd_detect(_args: argparse.Namespace) -> int:
    from repro.bench.functional import detection_matrix

    rows = detection_matrix()
    print_experiment(
        "LibSEAL attack-detection matrix",
        ["service", "attack", "result", "violated invariants"],
        [
            [r["service"], r["attack"],
             "DETECTED" if r["detected"] else "clean",
             r["violated_invariants"]]
            for r in rows
        ],
    )
    failures = [r for r in rows if r["detected"] != r["expected_detected"]]
    return 1 if failures else 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.bench import perf

    if args.experiment == "fig5a":
        curves = perf.fig5a_git_curves(client_counts=(16, 48, 80))
        rows = [
            [mode.value, round(max(p.throughput_rps for p in pts)),
             perf.GIT_PAPER_THROUGHPUT[mode]]
            for mode, pts in curves.items()
        ]
        print_experiment("Fig 5a - Git peak throughput (req/s)",
                         ["config", "measured", "paper"], rows)
    elif args.experiment == "fig7a":
        rows = [
            [r["content_bytes"], round(r["native_rps"]),
             round(r["libseal_rps"]), f"{r['overhead_pct']:.1f}%",
             f"{r['paper_overhead_pct']}%"]
            for r in perf.fig7a_apache_content_sweep()
        ]
        print_experiment("Fig 7a - Apache enclave-TLS overhead",
                         ["bytes", "native", "LibSEAL", "overhead", "paper"],
                         rows)
    elif args.experiment == "table2":
        rows = [
            [r["content_bytes"], round(r["sync_rps"]), round(r["async_rps"]),
             f"{r['improvement_pct']:.0f}%", f"{r['paper_improvement_pct']:.0f}%"]
            for r in perf.table2_async_calls()
        ]
        print_experiment("Table 2 - async enclave calls",
                         ["bytes", "sync", "async", "gain", "paper gain"],
                         rows)
    elif args.experiment == "table3":
        rows = [
            [r["sgx_threads"], round(r["throughput_rps"]), r["paper_rps"]]
            for r in perf.table3_sgx_threads()
        ]
        print_experiment("Table 3 - SGX thread sweep",
                         ["S", "measured req/s", "paper req/s"], rows)
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.faults.fuzz import run_fuzz

    layers = args.layer or ["tls", "http", "service"]
    reports = run_fuzz(
        seed=args.seed,
        cases_per_layer=args.cases,
        layers=layers,
    )
    for report in reports:
        print(report.describe())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import ObsConfig, observe
    from repro.obs.render import render_metrics_table, render_span_tree
    from repro.obs.workload import run_workload

    config = ObsConfig(ring_capacity=args.ring_capacity)
    frontend_result = None
    with observe(config) as plane:
        report = run_workload(
            args.workload,
            requests=args.requests,
            check_interval=args.check_interval,
            reconnect_every=args.reconnect_every,
            seed=args.seed,
        )
        if args.frontend:
            # A small open-loop event-loop run so the scheduler metrics
            # (run-queue depth, worker occupancy, per-connection slice
            # counts) show up alongside the pipeline metrics.
            from repro.servers import ServerMachine

            frontend_result = ServerMachine().run_frontend(
                args.frontend, window_s=args.frontend / 10_000
            )
    if args.json:
        print(
            json.dumps(
                {"report": report.__dict__, "metrics": plane.metrics.snapshot()},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if args.prom:
        print(plane.metrics.render_prometheus(), end="")
        return 0
    print(
        f"workload={report.workload} requests={report.requests} "
        f"pairs={report.pairs_logged} handshakes={report.handshakes} "
        f"checks={report.checks_run} seals={report.epochs_sealed} "
        f"audit_rows={report.audit_rows}"
    )
    if frontend_result is not None:
        print(
            f"frontend connections={frontend_result.connections} "
            f"completed={frontend_result.completed} "
            f"slices={frontend_result.slices} "
            f"peak_ready={frontend_result.peak_ready_depth} "
            f"task_waits={frontend_result.task_wait_events} "
            f"audit_ocalls={frontend_result.audit_ocalls}"
        )
    print()
    print("span tree (aggregated by path)")
    print("------------------------------")
    print(render_span_tree(plane.tracer))
    print()
    print("metrics")
    print("-------")
    print(render_metrics_table(plane.metrics))
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.regression import (
        BaselineError,
        check_canonical,
        compare,
        render_verdicts,
        update_baseline,
    )

    try:
        if args.update_baseline:
            diff = update_baseline(
                Path(args.results), Path(args.baseline), prune=args.prune
            )
            print(f"rewrote {args.baseline} in canonical form")
            print(diff.describe())
            return 0
        if args.check_canonical:
            ok, _ = check_canonical(Path(args.baseline))
            if not ok:
                print(
                    f"{args.baseline} is not in canonical form: regenerate "
                    "it with `python -m repro bench-compare "
                    "--update-baseline` (after running the gated benches)"
                )
                return 1
            print(f"{args.baseline} is canonical")
            return 0
        verdicts, ok = compare(
            Path(args.results), Path(args.baseline), Path(args.output)
        )
    except BaselineError as exc:
        print(f"baseline error: {exc}")
        return 2
    print(render_verdicts(verdicts))
    print()
    print(f"wrote {args.output}: {'OK' if ok else 'REGRESSIONS DETECTED'}")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.faults.chaos import FAMILIES, FAMILY_DESCRIPTIONS, run_soak

    if args.list_families:
        width = max(len(name) for name in FAMILY_DESCRIPTIONS)
        for name, description in FAMILY_DESCRIPTIONS.items():
            print(f"{name:<{width}}  {description}")
        return 0

    families = tuple(args.family) if args.family else FAMILIES
    verdicts = run_soak(
        families=families,
        seeds_per_family=args.seeds,
        seed_base=args.seed_base,
        f=args.f,
    )
    determinism_ok = True
    if args.check_determinism:
        rerun = run_soak(
            families=families,
            seeds_per_family=args.seeds,
            seed_base=args.seed_base,
            f=args.f,
        )
        mismatched = [
            f"{a.family}/seed-{a.seed}"
            for a, b in zip(verdicts, rerun)
            if a.trace_digest != b.trace_digest
        ]
        determinism_ok = not mismatched

    failing = [v for v in verdicts if not v.ok]
    print_experiment(
        "Chaos soak - distributed ROTE audit path",
        ["scenario", "verdict", "pairs", "blocked", "probes", "recovered in"],
        [
            [
                f"{v.family}/seed-{v.seed}",
                "OK" if v.ok else "VIOLATION",
                v.pairs_ok,
                v.pairs_blocked,
                v.stale_probes,
                v.recovered_in if v.recovered_in is not None else "-",
            ]
            for v in verdicts
        ],
    )
    for verdict in failing:
        for violation in verdict.violations:
            print(f"  {verdict.family}/seed-{verdict.seed}: {violation}")
    print(
        f"{len(verdicts)} scenarios, {len(failing)} with violations"
        + (
            ", determinism "
            + ("OK" if determinism_ok else "BROKEN: " + ", ".join(mismatched))
            if args.check_determinism
            else ""
        )
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "ok": not failing and determinism_ok,
                    "determinism_checked": bool(args.check_determinism),
                    "determinism_ok": determinism_ok,
                    "scenarios": [v.as_dict() for v in verdicts],
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"wrote {args.json}")
    return 0 if not failing and determinism_ok else 1


def _cmd_inventory(_args: argparse.Namespace) -> int:
    from repro.bench.functional import table1_inventory

    rows = [[r["module"], r["loc"]] for r in table1_inventory()]
    print_experiment("Table 1 - reproduction inventory", ["module", "LoC"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LibSEAL reproduction (EuroSys 2018) command line",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="attack detection for a service")
    demo.add_argument("service",
                      choices=["git", "owncloud", "dropbox", "messaging"])
    demo.set_defaults(func=_cmd_demo)

    detect = subparsers.add_parser("detect", help="full detection matrix")
    detect.set_defaults(func=_cmd_detect)

    perf = subparsers.add_parser("perf", help="one performance experiment")
    perf.add_argument("experiment",
                      choices=["fig5a", "fig7a", "table2", "table3"])
    perf.set_defaults(func=_cmd_perf)

    inventory = subparsers.add_parser("inventory", help="code inventory")
    inventory.set_defaults(func=_cmd_inventory)

    fuzz = subparsers.add_parser(
        "fuzz", help="deterministic protocol fuzzing of the front end"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--cases", type=int, default=10000,
                      help="mutation cases per layer (default 10000)")
    fuzz.add_argument("--layer", action="append",
                      choices=["tls", "http", "service"],
                      help="repeatable; default: all three layers")
    fuzz.set_defaults(func=_cmd_fuzz)

    obs = subparsers.add_parser(
        "obs", help="trace a workload through the instrumented pipeline"
    )
    obs.add_argument("--workload", default="git",
                     choices=["git", "owncloud", "dropbox", "messaging"])
    obs.add_argument("--requests", type=int, default=200)
    obs.add_argument("--check-interval", type=int, default=50,
                     help="run invariant checks every N pairs (default 50)")
    obs.add_argument("--reconnect-every", type=int, default=20,
                     help="fresh TLS connection every N pairs (default 20)")
    obs.add_argument("--ring-capacity", type=int, default=65536,
                     help="span ring buffer capacity (default 65536)")
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--frontend", type=int, default=500, metavar="N",
                     help="also run N open-loop connections through the "
                          "lthreads event loop so scheduler metrics are "
                          "sampled (0 disables; default 500)")
    obs.add_argument("--json", action="store_true",
                     help="emit the metrics snapshot as JSON")
    obs.add_argument("--prom", action="store_true",
                     help="emit Prometheus text format")
    obs.set_defaults(func=_cmd_obs)

    compare = subparsers.add_parser(
        "bench-compare", help="bench summaries vs the committed CI baseline"
    )
    compare.add_argument("--results", default="benchmarks/results")
    compare.add_argument("--baseline",
                         default="benchmarks/baselines/ci_baseline.json")
    compare.add_argument("--output", default="benchmarks/results/BENCH_ci.json")
    compare.add_argument("--update-baseline", action="store_true",
                         help="rewrite every baseline value from the "
                              "current summaries (canonical form; modes "
                              "and tolerances preserved)")
    compare.add_argument("--check-canonical", action="store_true",
                         help="verify the baseline file is byte-identical "
                              "to its canonical rendering and exit")
    compare.add_argument("--prune", action="store_true",
                         help="with --update-baseline: drop gates whose "
                              "metric vanished from the summaries instead "
                              "of failing")
    compare.set_defaults(func=_cmd_bench_compare)

    chaos = subparsers.add_parser(
        "chaos", help="chaos-soak the distributed ROTE audit path"
    )
    chaos.add_argument("--family", action="append",
                       help="repeatable; default: all scenario families")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="seeds per family (default 5)")
    chaos.add_argument("--seed-base", type=int, default=0)
    chaos.add_argument("--f", type=int, default=1,
                       help="ROTE fault tolerance (n = 3f + 1 replicas)")
    chaos.add_argument("--json", metavar="FILE",
                       help="write per-scenario verdicts as JSON")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="run twice and compare event-trace digests")
    chaos.add_argument("--list-families", action="store_true",
                       help="list every chaos family with its one-line "
                            "description and exit")
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
