"""Versioned run artifacts: schema, writer, validator.

One suite run serializes to a ``BENCH_<suite>.json`` payload holding,
per experiment, every condition's declarative description and its
metrics.  The payload separates two kinds of data explicitly:

- **deterministic** — everything outside ``unpinned`` keys: condition
  descriptions, simulated-time metrics, provenance.  Two runs of the
  same suite at the same scale on the same tree must agree on the
  :func:`deterministic_view` byte for byte.
- **host-dependent** — wall-clock seconds, carried under ``unpinned``
  keys so trajectory tooling can show them while determinism checks and
  :mod:`repro.exp.trajectory` comparisons ignore them structurally
  (nothing needs a field-by-field skip list): each condition's driver
  time, and the whole suite's under a top-level ``unpinned`` when the
  run was timed.

``repro.exp/v1`` is the one artifact schema: every repo-root
``BENCH_<suite>.json`` is written by a suite of :mod:`repro.exp.suites`.
Validation is declarative (:data:`ARTIFACT_SCHEMA`) and intentionally
strict about shape but not values: the tier-1 gate validates every
``BENCH_*.json`` at the repo root through :func:`validate_artifact`
so a hand-edited, truncated or foreign artifact fails loudly.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExpError

__all__ = [
    "SCHEMA_VERSION",
    "build_payload",
    "deterministic_view",
    "load_payload",
    "validate_artifact",
    "write_payload",
]

SCHEMA_VERSION = "repro.exp/v1"

#: src/repro/exp/artifact.py -> repo root.
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Scalar JSON types metric values may take.
_METRIC_TYPES = (int, float, str, bool)


def _round_floats(value):
    """Stable float rounding so artifacts diff cleanly across runs."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=10,
    ).stdout.strip()


def _git_provenance() -> Dict[str, object]:
    """``{"git_sha": ..., "git_dirty": ...}`` for the working tree.

    Falls back to ``"unknown"`` outside a git checkout (e.g. an sdist)
    rather than failing the run that asked for a stamp.
    """
    try:
        sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": False}
    return {"git_sha": sha, "git_dirty": dirty}


def build_payload(
    suite: str,
    results: Sequence,
    scale,
    wall_s: Optional[float] = None,
) -> Dict[str, object]:
    """Assemble the artifact payload for one suite run.

    ``results`` is a sequence of :class:`~repro.exp.runner.RunResult`;
    ``scale`` the :class:`~repro.bench.harness.Scale` they all ran at;
    ``wall_s`` the suite's host wall time, recorded as a top-level
    ``unpinned: {"wall_s": ...}`` when given.
    """
    experiments: List[Dict[str, object]] = []
    for result in results:
        conditions = []
        for outcome in result.outcomes:
            conditions.append(
                {
                    "label": outcome.condition.label,
                    "condition": _round_floats(outcome.condition.describe()),
                    "metrics": _round_floats(dict(outcome.metrics)),
                    "unpinned": {"wall_s": round(outcome.wall_s, 4)},
                }
            )
        experiments.append(
            {
                "experiment_id": result.spec.experiment_id,
                "title": result.spec.title,
                "driver": result.spec.driver,
                "paper_expectation": result.spec.paper_expectation,
                "conditions": conditions,
            }
        )
    provenance = _git_provenance()
    provenance["scale"] = {
        "window_us": float(scale.window_us),
        "warmup_fraction": float(scale.warmup_fraction),
        "records": int(scale.records),
        "full": bool(scale.full),
    }
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "note": (
            "metrics and condition descriptions are deterministic in "
            "simulated time; every 'unpinned' subtree is host-dependent "
            "(wall clock) and excluded from determinism checks and "
            "compare"
        ),
        "provenance": provenance,
        "experiments": experiments,
    }
    if wall_s is not None:
        payload["unpinned"] = {"wall_s": round(wall_s, 4)}
    return payload


def deterministic_view(payload: Mapping[str, object]) -> Dict[str, object]:
    """A deep copy with every ``unpinned`` subtree removed.

    This is the byte-identity surface: serialize two views with
    ``json.dumps(..., sort_keys=True)`` and compare equal.
    """

    def strip(value):
        if isinstance(value, dict):
            return {
                key: strip(item)
                for key, item in value.items()
                if key != "unpinned"
            }
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return strip(dict(payload))


def write_payload(payload: Mapping[str, object], path: str) -> str:
    """Validate then write the artifact; returns the path written."""
    validate_artifact(payload)
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2, sort_keys=False)
        sink.write("\n")
    return path


def load_payload(path: str) -> Dict[str, object]:
    """Read and structurally validate one ``BENCH_*.json`` file."""
    try:
        with open(path, "r", encoding="utf-8") as source:
            payload = json.load(source)
    except OSError as error:
        raise ExpError(f"cannot read artifact {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ExpError(f"artifact {path} is not valid JSON: {error}") from error
    validate_artifact(payload, where=path)
    return payload


# ----------------------------------------------------------------------
# Declarative validation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One required mapping entry and its expected type(s)."""

    name: str
    types: Tuple[type, ...]
    #: Non-empty required for containers when True.
    non_empty: bool = False


def _check_fields(
    mapping: object, fields: Sequence[Field], where: str
) -> Mapping[str, object]:
    if not isinstance(mapping, Mapping):
        raise ExpError(f"{where}: expected a JSON object, got {type(mapping).__name__}")
    for spec in fields:
        if spec.name not in mapping:
            raise ExpError(f"{where}: missing required field {spec.name!r}")
        value = mapping[spec.name]
        if not isinstance(value, spec.types) or (
            isinstance(value, bool) and bool not in spec.types
        ):
            expected = "/".join(t.__name__ for t in spec.types)
            raise ExpError(
                f"{where}: field {spec.name!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
        if spec.non_empty and not value:
            raise ExpError(f"{where}: field {spec.name!r} must be non-empty")
    return mapping


#: Top-level shape of a ``repro.exp/v1`` artifact.  ``schema`` stays
#: first: :func:`validate_artifact` checks it on its own before the rest.
ARTIFACT_SCHEMA: Dict[str, Sequence[Field]] = {
    "root": (
        Field("schema", (str,)),
        Field("suite", (str,), non_empty=True),
        Field("provenance", (dict,)),
        Field("experiments", (list,), non_empty=True),
    ),
    "provenance": (
        Field("git_sha", (str,), non_empty=True),
        Field("git_dirty", (bool,)),
        Field("scale", (dict,)),
    ),
    "scale": (
        Field("window_us", (int, float)),
        Field("warmup_fraction", (int, float)),
        Field("records", (int,)),
        Field("full", (bool,)),
    ),
    "experiment": (
        Field("experiment_id", (str,), non_empty=True),
        Field("title", (str,)),
        Field("driver", (str,), non_empty=True),
        Field("paper_expectation", (str,)),
        Field("conditions", (list,), non_empty=True),
    ),
    "condition": (
        Field("label", (str,), non_empty=True),
        Field("condition", (dict,)),
        Field("metrics", (dict,), non_empty=True),
        Field("unpinned", (dict,)),
    ),
    #: The optional top-level ``unpinned``: the suite's host wall time.
    "unpinned": (Field("wall_s", (int, float)),),
}


def validate_artifact(
    payload: Mapping[str, object], where: str = "artifact"
) -> None:
    """Structurally validate a ``repro.exp/v1`` payload.

    Raises :class:`~repro.errors.ExpError` naming the offending path on
    the first violation; returns ``None`` on success.
    """
    # The schema value first: a foreign artifact is refused by its
    # schema alone, not by whichever v1 field it happens to lack.
    root = _check_fields(payload, ARTIFACT_SCHEMA["root"][:1], where)
    if root["schema"] != SCHEMA_VERSION:
        raise ExpError(
            f"{where}: schema {root['schema']!r} is not {SCHEMA_VERSION!r}"
        )
    _check_fields(root, ARTIFACT_SCHEMA["root"], where)
    provenance = _check_fields(
        root["provenance"], ARTIFACT_SCHEMA["provenance"], f"{where}.provenance"
    )
    _check_fields(
        provenance["scale"], ARTIFACT_SCHEMA["scale"], f"{where}.provenance.scale"
    )
    if "unpinned" in root:
        _check_fields(
            root["unpinned"], ARTIFACT_SCHEMA["unpinned"], f"{where}.unpinned"
        )
    seen_ids = set()
    for index, experiment in enumerate(root["experiments"]):  # type: ignore[index]
        exp_where = f"{where}.experiments[{index}]"
        entry = _check_fields(experiment, ARTIFACT_SCHEMA["experiment"], exp_where)
        if entry["experiment_id"] in seen_ids:
            raise ExpError(
                f"{exp_where}: duplicate experiment_id {entry['experiment_id']!r}"
            )
        seen_ids.add(entry["experiment_id"])
        seen_labels = set()
        for cindex, condition in enumerate(entry["conditions"]):  # type: ignore[index]
            cond_where = f"{exp_where}.conditions[{cindex}]"
            cond = _check_fields(
                condition, ARTIFACT_SCHEMA["condition"], cond_where
            )
            if cond["label"] in seen_labels:
                raise ExpError(
                    f"{cond_where}: duplicate condition label {cond['label']!r}"
                )
            seen_labels.add(cond["label"])
            for key, value in cond["metrics"].items():  # type: ignore[union-attr]
                if not isinstance(value, _METRIC_TYPES):
                    raise ExpError(
                        f"{cond_where}.metrics[{key!r}]: metric values must "
                        f"be scalars, got {type(value).__name__}"
                    )


def repo_root_artifacts(root: Optional[str] = None) -> List[str]:
    """Every ``BENCH_*.json`` path at the repo root (sorted)."""
    base = Path(root) if root is not None else _REPO_ROOT
    return sorted(str(path) for path in base.glob("BENCH_*.json"))
