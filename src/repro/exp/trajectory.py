"""Perf-trajectory comparison between two run artifacts.

``python -m repro.exp compare A.json B.json`` diffs the *deterministic*
metrics of two ``repro.exp/v1`` artifacts (``unpinned`` wall times are
ignored structurally via
:func:`~repro.exp.artifact.deterministic_view`), reports per-condition
deltas, and flags regressions.

Whether a delta is a regression depends on the metric's direction,
derived from its name:

- throughput-like (``mops`` / ``*_mops``) — higher is better; a drop
  beyond tolerance is a regression;
- loss-like (``lost*``) and times in microseconds (``*_us``:
  latencies, hand-off and queue-drain instants) — lower is better; a
  rise beyond tolerance is a regression, and from zero any rise is;
- everything else is *neutral*: reported when it changes, never flagged.

Deterministic metrics from the same tree at the same scale agree
exactly, so comparing two runs of one suite reports zero regressions —
the determinism acceptance check rides on the same code path users run
for real trajectory comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ExpError
from repro.exp.artifact import SCHEMA_VERSION, deterministic_view

__all__ = [
    "Comparison",
    "MetricDelta",
    "compare_payloads",
    "format_comparison",
]

#: Relative drop a higher-is-better metric may show before it is
#: flagged (absorbs honest last-digit rounding, nothing more).
DEFAULT_REL_TOLERANCE = 0.005


def metric_direction(name: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 neutral.

    Throughput (``mops``, ``*_mops``) is higher-is-better.  Losses
    (``lost*``) and times in microseconds (``*_us``: latencies, the
    hand-off and queue-drain instants) are lower-is-better.
    """
    if name == "mops" or name.endswith("_mops"):
        return 1
    if name.startswith("lost") or name.endswith("_us"):
        return -1
    return 0


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change between baseline (a) and candidate (b)."""

    experiment_id: str
    label: str
    metric: str
    before: object
    after: object
    #: +1/-1/0 per :func:`metric_direction`.
    direction: int
    regression: bool

    def describe(self) -> str:
        arrow = f"{self.before} -> {self.after}"
        tag = " REGRESSION" if self.regression else ""
        return f"{self.experiment_id}/{self.label} {self.metric}: {arrow}{tag}"


@dataclass
class Comparison:
    """Structured outcome of one artifact-pair comparison."""

    suite: str
    baseline_sha: str
    candidate_sha: str
    scales_match: bool
    changed: List[MetricDelta] = field(default_factory=list)
    #: (experiment_id, label) present only on one side.
    only_in_baseline: List[Tuple[str, str]] = field(default_factory=list)
    only_in_candidate: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [delta for delta in self.changed if delta.regression]

    @property
    def identical(self) -> bool:
        return not (
            self.changed or self.only_in_baseline or self.only_in_candidate
        )


def _conditions_by_key(
    payload: Mapping[str, object],
) -> Dict[Tuple[str, str], Mapping[str, object]]:
    table: Dict[Tuple[str, str], Mapping[str, object]] = {}
    for experiment in payload["experiments"]:  # type: ignore[index]
        for condition in experiment["conditions"]:  # type: ignore[index]
            table[(experiment["experiment_id"], condition["label"])] = condition
    return table


def _is_regression(
    direction: int, before: float, after: float, rel_tolerance: float
) -> bool:
    if direction == 0:
        return False
    if direction > 0:
        floor = before * (1.0 - rel_tolerance)
        return after < floor
    ceiling = before * (1.0 + rel_tolerance) if before else before
    return after > ceiling


def compare_payloads(
    baseline: Mapping[str, object],
    candidate: Mapping[str, object],
    rel_tolerance: float = DEFAULT_REL_TOLERANCE,
) -> Comparison:
    """Diff two validated ``repro.exp/v1`` payloads.

    Raises :class:`~repro.errors.ExpError` when the two artifacts are
    not commensurable (different schema versions or different suites),
    or when ``rel_tolerance`` is not a finite number in [0, 1): NaN, an
    infinite or a >= 1 tolerance would switch the regression gate off,
    and a negative one would flag gains.
    """
    if not 0.0 <= rel_tolerance < 1.0:
        raise ExpError(
            f"tolerance must be a number in [0, 1), got {rel_tolerance!r}"
        )
    for name, payload in (("baseline", baseline), ("candidate", candidate)):
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise ExpError(
                f"{name} artifact has schema {schema!r}; compare needs two "
                f"{SCHEMA_VERSION!r} artifacts"
            )
    if baseline["suite"] != candidate["suite"]:
        raise ExpError(
            f"cannot compare different suites: {baseline['suite']!r} vs "
            f"{candidate['suite']!r}"
        )
    base = deterministic_view(baseline)
    cand = deterministic_view(candidate)
    base_scale = base["provenance"]["scale"]  # type: ignore[index]
    cand_scale = cand["provenance"]["scale"]  # type: ignore[index]
    comparison = Comparison(
        suite=str(base["suite"]),
        baseline_sha=str(base["provenance"]["git_sha"]),  # type: ignore[index]
        candidate_sha=str(cand["provenance"]["git_sha"]),  # type: ignore[index]
        scales_match=base_scale == cand_scale,
    )
    base_table = _conditions_by_key(base)
    cand_table = _conditions_by_key(cand)
    comparison.only_in_baseline = sorted(set(base_table) - set(cand_table))
    comparison.only_in_candidate = sorted(set(cand_table) - set(base_table))
    for key in sorted(set(base_table) & set(cand_table)):
        experiment_id, label = key
        before_metrics = base_table[key]["metrics"]  # type: ignore[index]
        after_metrics = cand_table[key]["metrics"]  # type: ignore[index]
        for metric in sorted(set(before_metrics) | set(after_metrics)):
            before = before_metrics.get(metric)
            after = after_metrics.get(metric)
            if before == after:
                continue
            direction = metric_direction(metric)
            numeric = isinstance(before, (int, float)) and isinstance(
                after, (int, float)
            )
            comparison.changed.append(
                MetricDelta(
                    experiment_id=experiment_id,
                    label=label,
                    metric=metric,
                    before=before,
                    after=after,
                    direction=direction,
                    regression=(
                        _is_regression(
                            direction, float(before), float(after), rel_tolerance
                        )
                        if numeric
                        # A metric appearing/disappearing or changing type
                        # on a directional axis is itself suspicious.
                        else direction != 0
                    ),
                )
            )
    return comparison


def format_comparison(comparison: Comparison, verbose: bool = False) -> str:
    lines = [
        f"suite {comparison.suite!r}: "
        f"{comparison.baseline_sha[:12]} -> {comparison.candidate_sha[:12]}"
    ]
    if not comparison.scales_match:
        lines.append(
            "note: measurement scales differ — deltas reflect scale, "
            "not code"
        )
    if comparison.identical:
        lines.append("deterministic metrics identical; 0 regressions")
        return "\n".join(lines)
    for key in comparison.only_in_baseline:
        lines.append(f"removed: {key[0]}/{key[1]}")
    for key in comparison.only_in_candidate:
        lines.append(f"added:   {key[0]}/{key[1]}")
    shown = (
        comparison.changed
        if verbose
        else [d for d in comparison.changed if d.regression or d.direction]
    )
    for delta in shown:
        lines.append("  " + delta.describe())
    hidden = len(comparison.changed) - len(shown)
    if hidden > 0:
        lines.append(f"  (+{hidden} neutral metric change(s); use --verbose)")
    lines.append(
        f"{len(comparison.changed)} changed metric(s), "
        f"{len(comparison.regressions)} regression(s)"
    )
    return "\n".join(lines)
