"""Pareto artifact + report for `repro explore`.

The artifact is a committed JSON document (the same discipline as the
golden-stats gate): floats that must compare exactly are serialized with
fixed precision so float formatting can never drift, and the provenance
block records everything needed to reproduce the run — seed, schedule,
budget, evaluation counts, cache statistics.

The golden flavor (:func:`check_explore_golden` /
:func:`update_explore_golden`) snapshots a tiny fixed-seed run into
``goldens/golden_explore.json``: optimizer drift — a changed operator
draw, a reordered rank, a float wobble — shows up as a visible diff in
review, not a silent regression.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.explore.pareto import FrontPoint
from repro.explore.search import ExploreConfig, ExploreResult, explore

ARTIFACT_SCHEMA = 1

DEFAULT_GOLDEN_PATH = Path("goldens") / "golden_explore.json"

#: The frozen tiny run the golden snapshot pins: two generations over the
#: micro trio the golden-stats gate already uses.  Changing any field is a
#: golden regeneration (and a review justification).
GOLDEN_EXPLORE_CONFIG = ExploreConfig(
    seed=0,
    generations=2,
    population_size=8,
    budget_kib=96.0,
    workloads=("biased", "dispatch", "counted_loops"),
    scale=0.15,
    max_instructions=3000,
    backend="trace",
    rungs=2,
)

#: Provenance keys that vary between cold and warm-cache runs of the same
#: search; excluded from the golden payload (and only there).
_VOLATILE_PROVENANCE = (
    "cache_hits",
    "cold_evaluations",
    "cache_enabled",
    "trace_captures",
)


def _point_payload(point: FrontPoint) -> Dict[str, Any]:
    return {
        "name": point.name,
        "spec": point.spec,
        "params": {k: v for k, v in point.params},
        "origin": point.origin,
        "generation": point.generation,
        "mean_mpki": f"{point.mean_mpki:.6f}",
        "mean_accuracy": f"{point.mean_accuracy:.8f}",
        "area_um2": f"{point.area_um2:.1f}",
        "predict_latency": point.predict_latency,
        "storage_kib": f"{point.storage_kib:.3f}",
        "per_workload_mpki": {
            name: f"{value:.6f}"
            for name, value in sorted(point.per_workload_mpki.items())
        },
    }


def result_payload(result: ExploreResult, golden: bool = False) -> Dict[str, Any]:
    """The JSON document for an artifact (or, stripped, for the golden)."""
    provenance = dict(result.provenance)
    if golden:
        for key in _VOLATILE_PROVENANCE:
            provenance.pop(key, None)
    return {
        "schema": ARTIFACT_SCHEMA,
        "provenance": provenance,
        "front": [_point_payload(p) for p in result.front],
        "seeds": [_point_payload(p) for p in result.seed_points],
    }


def save_artifact(path: Path, result: ExploreResult) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_payload(result), indent=2, sort_keys=True) + "\n")


def load_artifact(path: Path) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


def format_front(points: List[FrontPoint], title: str = "Pareto front") -> str:
    header = (
        f"{'design':16s} {'MPKI':>9s} {'area um2':>10s} {'lat':>4s} "
        f"{'KiB':>7s} {'gen':>4s}  topology"
    )
    lines = [f"{title} ({len(points)} points):", header, "-" * len(header)]
    for p in points:
        sizing = (
            " [" + ", ".join(f"{k}={v}" for k, v in p.params) + "]" if p.params else ""
        )
        lines.append(
            f"{p.name:16s} {p.mean_mpki:9.3f} {p.area_um2:10.0f} "
            f"{p.predict_latency:4d} {p.storage_kib:7.1f} {p.generation:4d}"
            f"  {p.spec}{sizing}"
        )
    return "\n".join(lines)


def format_report(result: ExploreResult) -> str:
    prov = result.provenance
    lines = [
        format_front(result.front),
        "",
        format_front(result.seed_points, title="seeded presets (baselines)"),
        "",
        f"provenance: seed={prov['seed']} generations={prov['generations']} "
        f"population={prov['population_size']} budget={prov['budget_kib']:g}KiB",
        f"evaluation: {prov['unique_candidates']} unique candidates, "
        f"{prov['scheduled_cells']} scheduled cells, "
        f"{prov['evals_saved_by_halving']} cells saved by halving",
    ]
    captures = f"{prov.get('trace_captures', 0)} trace captures"
    if prov.get("cache_enabled"):
        lines.append(
            f"cache: {prov['cache_hits']} hits, "
            f"{prov['cold_evaluations']} cold evaluations, {captures}"
        )
    else:
        lines.append(f"trace store: {captures}")
    dominated = prov.get("dominated_seeds", [])
    if dominated:
        lines.append(
            "front strictly dominates seeded preset(s) on MPKI-vs-area: "
            + ", ".join(dominated)
        )
    else:
        lines.append("front does not yet dominate any seeded preset")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Golden snapshot
# ----------------------------------------------------------------------
def _golden_run() -> ExploreResult:
    return explore(GOLDEN_EXPLORE_CONFIG)


def update_explore_golden(
    path: Path = DEFAULT_GOLDEN_PATH,
    result: Optional[ExploreResult] = None,
) -> Path:
    """Regenerate the committed golden snapshot from a fresh fixed run."""
    result = result or _golden_run()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result_payload(result, golden=True), indent=2, sort_keys=True)
        + "\n"
    )
    return path


def _diff(
    expected: Any, actual: Any, prefix: str, out: List[str], limit: int = 40
) -> None:
    if len(out) >= limit:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(f"{prefix}{key}: unexpected (not in golden)")
            elif key not in actual:
                out.append(f"{prefix}{key}: missing from fresh run")
            else:
                _diff(expected[key], actual[key], f"{prefix}{key}.", out, limit)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{prefix[:-1]}: length {len(actual)} != golden {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{prefix}{i}.", out, limit)
        return
    if expected != actual:
        out.append(f"{prefix[:-1]}: {actual!r} != golden {expected!r}")


def check_explore_golden(
    path: Path = DEFAULT_GOLDEN_PATH,
    result: Optional[ExploreResult] = None,
) -> Tuple[bool, List[str]]:
    """Re-run the frozen search and exact-match it against the snapshot."""
    path = Path(path)
    if not path.exists():
        return False, [
            f"no golden snapshot at {path}; generate one with "
            "`repro explore --golden-update`"
        ]
    expected = json.loads(path.read_text())
    result = result or _golden_run()
    actual = result_payload(result, golden=True)
    messages: List[str] = []
    _diff(expected, actual, "", messages)
    return not messages, messages
