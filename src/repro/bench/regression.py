"""The CI bench-regression gate.

Benchmarks persist machine-readable summaries under
``benchmarks/results/<name>.json`` (see ``benchmarks/conftest.py``). This
module compares the *deterministic* metrics in those summaries — modelled
cycles, rows-scanned ratios, outcome counts; never wall-clock — against a
committed baseline, so CI fails when a change quietly regresses the
pipeline's modelled performance (e.g. incremental checking losing its
Fig. 6 speedup) while the functional tests still pass.

Baseline format (``benchmarks/baselines/ci_baseline.json``)::

    {
      "tolerance": 0.2,
      "metrics": {
        "checking_smoke.rows_speedup": {"value": 29.8, "mode": "min"},
        "recovery_outcomes.torn_tail":  {"value": 2,   "mode": "exact"}
      }
    }

The key before the first dot names the summary file; the rest is a dotted
path into its ``metrics`` object. Modes:

- ``min``   — measured must be at least ``value * (1 - tolerance)``
- ``max``   — measured must be at most  ``value * (1 + tolerance)``
- ``range`` — measured must be within ``value * (1 ± tolerance)``
- ``exact`` — measured must equal ``value`` (counts, outcome tallies)

Failure modes are all loud, never vacuous:

- a summary file that does not exist (the benchmark never ran, or
  stopped emitting JSON) fails every metric gated on it with status
  ``no-summary`` — results files are not committed, so a stale checkout
  can never stand in for a benchmark run;
- a metric path absent from an existing summary fails with ``missing``;
- a malformed baseline (bad JSON, wrong shape, unknown mode) raises
  :class:`BaselineError` instead of comparing nothing.

The baseline itself is machine-written: ``python -m repro bench-compare
--update-baseline`` rewrites every ``value`` from the current summaries
in a canonical rendering (sorted keys, 6-significant-digit floats,
2-space indent, trailing newline) that :func:`check_canonical` — run in
CI — verifies byte-for-byte, so hand-edits that drift from canonical
form are caught.

``compare`` writes the full verdict table (default: the git-ignored
``benchmarks/results/BENCH_ci.json``) for the CI artifact to show.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

DEFAULT_TOLERANCE = 0.2

_MODES = ("exact", "min", "max", "range")


class BaselineError(ValueError):
    """The baseline file is unusable: malformed JSON or a bad entry."""


@dataclass
class MetricVerdict:
    """One baseline metric compared against the measured value."""

    metric: str
    mode: str
    baseline: float
    measured: float | None
    tolerance: float
    status: str  # "ok" | "regression" | "missing" | "no-summary"
    detail: str = ""


def _load_baseline(baseline_path: Path) -> dict:
    try:
        baseline = json.loads(baseline_path.read_text())
    except FileNotFoundError:
        raise BaselineError(f"baseline file not found: {baseline_path}") from None
    except json.JSONDecodeError as exc:
        raise BaselineError(f"malformed baseline JSON in {baseline_path}: {exc}") from None
    if not isinstance(baseline, dict) or not isinstance(baseline.get("metrics", {}), dict):
        raise BaselineError(
            f"baseline {baseline_path} must be an object with a 'metrics' object"
        )
    return baseline


def _spec_fields(metric: str, spec, default_tol: float) -> tuple[str, float, float]:
    if not isinstance(spec, dict):
        raise BaselineError(f"baseline entry {metric!r} must be an object")
    mode = spec.get("mode", "range")
    if mode not in _MODES:
        raise BaselineError(f"baseline entry {metric!r} has unknown mode {mode!r}")
    try:
        value = float(spec["value"])
        tol = float(spec.get("tolerance", default_tol))
    except (KeyError, TypeError, ValueError) as exc:
        raise BaselineError(f"baseline entry {metric!r} is unusable: {exc!r}") from None
    return mode, value, tol


def _lookup(summary: dict, path: list[str]) -> float | None:
    node = summary.get("metrics", {})
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return node  # int-ness preserved so baseline updates stay integral


def _judge(mode: str, baseline: float, measured: float, tol: float) -> tuple[bool, str]:
    if mode == "exact":
        return measured == baseline, f"expected exactly {baseline}"
    low = baseline * (1.0 - tol)
    high = baseline * (1.0 + tol)
    if baseline < 0:
        low, high = high, low
    if mode == "min":
        return measured >= low, f"must be >= {low:.6g}"
    if mode == "max":
        return measured <= high, f"must be <= {high:.6g}"
    return low <= measured <= high, f"must be within [{low:.6g}, {high:.6g}]"


def _load_summaries(
    baseline: dict, results_dir: Path
) -> tuple[dict[str, dict], dict[str, str]]:
    """Per-benchmark summaries plus a reason string for each absent one."""
    summaries: dict[str, dict] = {}
    absent: dict[str, str] = {}
    for metric in baseline.get("metrics", {}):
        name = metric.partition(".")[0]
        if name in summaries or name in absent:
            continue
        path = results_dir / f"{name}.json"
        try:
            summaries[name] = json.loads(path.read_text())
        except FileNotFoundError:
            absent[name] = (
                f"no summary {path} — the benchmark emitted no JSON "
                "(did it run?)"
            )
        except json.JSONDecodeError as exc:
            absent[name] = f"unreadable summary {path}: {exc}"
    return summaries, absent


def compare(
    results_dir: Path,
    baseline_path: Path,
    output_path: Path | None = None,
) -> tuple[list[MetricVerdict], bool]:
    """Compare every baseline metric; returns (verdicts, all_ok).

    A missing summary file ("no-summary") or metric path ("missing") is
    a failure: a benchmark that silently stopped emitting its gate
    metric must not pass the gate.
    """
    baseline = _load_baseline(baseline_path)
    default_tol = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    summaries, absent = _load_summaries(baseline, results_dir)
    verdicts: list[MetricVerdict] = []
    for metric, spec in sorted(baseline.get("metrics", {}).items()):
        name, _, rest = metric.partition(".")
        mode, value, tol = _spec_fields(metric, spec, default_tol)
        if name in absent:
            verdicts.append(
                MetricVerdict(
                    metric=metric,
                    mode=mode,
                    baseline=value,
                    measured=None,
                    tolerance=tol,
                    status="no-summary",
                    detail=absent[name],
                )
            )
            continue
        measured = _lookup(summaries[name], rest.split(".") if rest else [])
        if measured is None:
            verdicts.append(
                MetricVerdict(
                    metric=metric,
                    mode=mode,
                    baseline=value,
                    measured=None,
                    tolerance=tol,
                    status="missing",
                    detail=f"no metric {rest!r} in {name}.json",
                )
            )
            continue
        ok, detail = _judge(mode, value, measured, tol)
        verdicts.append(
            MetricVerdict(
                metric=metric,
                mode=mode,
                baseline=value,
                measured=measured,
                tolerance=tol,
                status="ok" if ok else "regression",
                detail="" if ok else detail,
            )
        )
    all_ok = all(v.status == "ok" for v in verdicts)
    if output_path is not None:
        report = {
            "baseline": str(baseline_path),
            "results_dir": str(results_dir),
            "ok": all_ok,
            "verdicts": [asdict(v) for v in verdicts],
        }
        output_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = output_path.with_suffix(output_path.suffix + ".tmp")
        tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        tmp.replace(output_path)
    return verdicts, all_ok


def render_verdicts(verdicts: list[MetricVerdict]) -> str:
    """Aligned text table of the comparison, worst rows last."""
    order = {"ok": 0, "regression": 1, "missing": 2, "no-summary": 3}
    rows = sorted(verdicts, key=lambda v: (order[v.status], v.metric))
    width = max((len(v.metric) for v in rows), default=10)
    lines = []
    for v in rows:
        measured = "-" if v.measured is None else f"{v.measured:.6g}"
        line = (
            f"{v.metric:<{width}}  {v.status.upper():<10}"
            f"  baseline={v.baseline:.6g} ({v.mode}, ±{v.tolerance:.0%})"
            f"  measured={measured}"
        )
        if v.detail:
            line += f"  [{v.detail}]"
        lines.append(line)
    if not lines:
        lines.append("(baseline contains no metrics)")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Canonical baseline rendering + machine refresh
# --------------------------------------------------------------------------


def _canonical_value(node):
    """Floats clipped to 6 significant digits (round-tripped through the
    shortest repr, so the file is stable across regenerations); ints,
    bools and strings pass through; containers recurse."""
    if isinstance(node, bool) or isinstance(node, int) or node is None:
        return node
    if isinstance(node, float):
        return float(f"{node:.6g}")
    if isinstance(node, dict):
        return {key: _canonical_value(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_canonical_value(value) for value in node]
    return node


def canonical_text(baseline: dict) -> str:
    """The one true rendering of a baseline document."""
    return json.dumps(_canonical_value(baseline), indent=2, sort_keys=True) + "\n"


def check_canonical(baseline_path: Path) -> tuple[bool, str]:
    """(is_canonical, canonical_text) for the committed baseline file.

    Non-canonical means the file was hand-edited (or merged) out of the
    machine-written form: re-run ``bench-compare --update-baseline`` (or
    rewrite with :func:`canonical_text`) before committing.
    """
    text = canonical_text(_load_baseline(baseline_path))
    return baseline_path.read_text() == text, text


@dataclass
class BaselineDiff:
    """What ``update_baseline`` actually did, entry by entry.

    A baseline refresh is an auditable event, not a silent rewrite: the
    diff names every metric whose expectation moved (with the old and
    new value), every drafted gate that received its first value, and
    every gate that was pruned because its metric vanished.
    """

    changed: list[tuple[str, float, float]]  # (metric, old, new)
    added: list[tuple[str, float]]  # (metric, new) — drafted gates filled
    removed: list[str]  # pruned gates (only with prune=True)

    @property
    def empty(self) -> bool:
        return not (self.changed or self.added or self.removed)

    def describe(self) -> str:
        """Human-readable rendering, one line per affected metric."""
        if self.empty:
            return "no metric values changed"
        lines = []
        for metric, old, new in self.changed:
            lines.append(
                f"  changed  {metric}: {old:.6g} -> {new:.6g}"
            )
        for metric, new in self.added:
            lines.append(f"  added    {metric}: {new:.6g}")
        for metric in self.removed:
            lines.append(f"  removed  {metric}")
        summary = (
            f"{len(self.changed)} changed, {len(self.added)} added, "
            f"{len(self.removed)} removed"
        )
        return "\n".join([summary] + lines)


def update_baseline(
    results_dir: Path, baseline_path: Path, prune: bool = False
) -> BaselineDiff:
    """Rewrite every baseline ``value`` from the current summaries.

    Modes, tolerances and the metric set are preserved — this refreshes
    expectations, it does not invent gates. The two sanctioned ways the
    set can move, both reported in the returned :class:`BaselineDiff`:

    - an entry drafted by hand with ``"value": null`` receives its first
      measured value ("added" — how a new gate enters the baseline);
    - with ``prune=True``, an entry whose summary exists but whose
      metric path vanished is dropped ("removed") instead of failing.

    Everything else stays loud: a missing summary, or a missing metric
    without ``prune``, raises :class:`BaselineError` rather than
    silently keeping a stale value. The file is always rewritten in
    canonical form (deterministic: sorted keys, 6 significant digits,
    trailing newline).
    """
    baseline = _load_baseline(baseline_path)
    default_tol = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    summaries, absent = _load_summaries(baseline, results_dir)
    diff = BaselineDiff(changed=[], added=[], removed=[])
    metrics = baseline.get("metrics", {})
    for metric, spec in sorted(metrics.items()):
        name, _, rest = metric.partition(".")
        drafted = isinstance(spec, dict) and spec.get("value") is None
        if not drafted:
            _spec_fields(metric, spec, default_tol)  # validate shape first
        elif spec.get("mode", "range") not in _MODES:
            raise BaselineError(
                f"baseline entry {metric!r} has unknown mode "
                f"{spec.get('mode')!r}"
            )
        if name in absent:
            raise BaselineError(f"cannot update {metric!r}: {absent[name]}")
        measured = _lookup(summaries[name], rest.split(".") if rest else [])
        if measured is None:
            if prune:
                del metrics[metric]
                diff.removed.append(metric)
                continue
            raise BaselineError(
                f"cannot update {metric!r}: no metric {rest!r} in {name}.json"
            )
        if drafted:
            diff.added.append((metric, measured))
        elif _canonical_value(spec["value"]) != _canonical_value(measured):
            diff.changed.append((metric, spec["value"], measured))
        spec["value"] = measured
    tmp = baseline_path.with_suffix(baseline_path.suffix + ".tmp")
    tmp.write_text(canonical_text(baseline))
    tmp.replace(baseline_path)
    return diff
