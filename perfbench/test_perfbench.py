"""Checks on the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from repro.eval.cache import program_digest  # noqa: E402
from repro.eval.runner import run_suite  # noqa: E402
from repro.workloads import registry, traces  # noqa: E402


@pytest.mark.parametrize(
    "build, scale",
    [
        (inputs.micro_programs, workloads.REPLAY_SCALE),
        (inputs.micro_programs, 1.0),
        (inputs.specint_programs, workloads.CYCLE_SCALE),
        (inputs.specint_programs, 0.2),
    ],
)
def test_default_seed_reproduces_registered_programs(build, scale):
    programs = build(inputs.DEFAULT_SEED, scale)
    assert len(programs) == 10
    for name, program in programs.items():
        registered = registry.build_workload(name, scale)
        assert program_digest(program) == program_digest(registered), name


def test_other_seeds_change_the_data_not_the_shape():
    default = inputs.micro_programs(inputs.DEFAULT_SEED, 0.5)
    other = inputs.micro_programs(7, 0.5)
    assert other == inputs.micro_programs(7, 0.5)
    changed = [n for n in default if program_digest(default[n]) != program_digest(other[n])]
    assert changed
    for name in default:
        assert len(default[name].instructions) == len(other[name].instructions)


def test_service_specs_are_seeded():
    assert inputs.service_specs(3, 0.5) == inputs.service_specs(3, 0.5)
    assert inputs.service_specs(3, 0.5) != inputs.service_specs(4, 0.5)
    assert len(inputs.service_specs(3, 0.5)) == 30


def _counts(results):
    return {
        (system, name): (r.instructions, r.branches, r.branch_mispredicts, r.cycles)
        for system, by_name in results.items()
        for name, r in by_name.items()
    }


def test_traced_run_gives_the_same_simulated_counts(tmp_path):
    micro = inputs.micro_programs(inputs.DEFAULT_SEED, 0.2)
    paths = {}
    for name in ("biased", "pattern_long", "dispatch"):
        paths[name] = str(tmp_path / f"{name}.npz")
        traces.capture_trace(micro[name]).save(paths[name])
    specint = inputs.specint_programs(inputs.DEFAULT_SEED, 0.03)
    cycle_programs = {"x264": specint["x264"]}

    def sweep():
        return (
            _counts(run_suite(list(inputs.PRESETS), paths, backend="replay")),
            _counts(run_suite(["tage_l"], cycle_programs, backend="cycle")),
        )

    plain = sweep()
    tracer = harness.Tracer("test", tmp_path)
    with harness.installed(tracer):
        tracer.phase, tracer.active = "timed", True
        traced = sweep()
        tracer.active = False
    assert traced == plain
    assert tracer.calls("core.predict") > 0
    assert tracer.calls("kernels.run") > 0
    assert tracer.calls("backends.run") == 3 * len(paths) + 1
    metrics = harness.layer_metrics(tracer, {})
    assert 0 < metrics["kernels.accept_ratio"] <= 1
    assert metrics["frontend.core_self_s"] > 0
    # Uninstalling puts every original back.
    from repro.core.composer import ComposedPredictor

    assert registry.capture_trace is traces.capture_trace
    assert not hasattr(traces.capture_trace, "__wrapped__")
    assert not hasattr(traces.BranchTrace.__dict__["load"].__func__, "__wrapped__")
    assert not hasattr(ComposedPredictor.predict, "__wrapped__")


def test_self_time_subtracts_child_spans(tmp_path):
    tracer = harness.Tracer("test", tmp_path)
    child = tracer.wrap("child", lambda: time.sleep(0.02))

    def parent_body():
        time.sleep(0.01)
        child()
        child()

    parent = tracer.wrap("parent", parent_body)
    tracer.phase, tracer.active = "timed", True
    parent()
    assert tracer.calls("parent") == 1 and tracer.calls("child") == 2
    assert tracer.total("parent") >= tracer.total("child") >= 0.04
    assert tracer.self_time("parent") == pytest.approx(
        tracer.total("parent") - tracer.total("child")
    )
    spans = {span[2]: span for span in tracer.spans}
    assert spans["child"][1] == spans["parent"][0]


def test_reentrant_span_counts_once(tmp_path):
    tracer = harness.Tracer("test", tmp_path)
    calls = []

    def inner():
        calls.append("inner")

    wrapped_inner = tracer.wrap("layer", inner)
    outer = tracer.wrap("layer", lambda: wrapped_inner())
    tracer.phase, tracer.active = "timed", True
    outer()
    assert calls == ["inner"]
    assert tracer.calls("layer") == 1
