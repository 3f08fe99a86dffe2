"""Tests for the pluggable execution-backend layer (``repro.backends``).

The load-bearing guarantee: the ``replay`` backend — columnar walk, no
interpreter, branchless packets skipped — reproduces the ``trace``
backend's branch and mispredict counts bit for bit, for every preset,
with and without the fast path's gating conditions, and across a
save/load process boundary.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cli, presets
from repro.backends import (
    DEFAULT_BACKEND,
    RunLimits,
    backend_names,
    get_backend,
)
from repro.backends.base import counts_result
from repro.backends.packets import (
    WalkCounts,
    drive_stream,
    interpreter_stream,
    program_packets,
)
from repro.backends.replay import drive_columns, trace_packets
from repro.backends.trace import TraceBackend
from repro.components.library import standard_library
from repro.core.composer import ComposerConfig, compose
from repro.core.interface import PredictorComponent, StorageReport
from repro.eval.runner import run_workload
from repro.kernels.engine import TraceColumns, engine_for
from repro.isa.program import Program
from repro.eval.parallel import EvalJob, ParallelRunner, _with_trace, job_cache_key
from repro.workloads import registry
from repro.workloads.micro import build_micro
from repro.workloads.registry import (
    TRACE_STORE,
    TRACE_STORE_SIZE,
    WorkloadSource,
    build_workload,
    resolve_workload,
    workload_names,
)
from repro.workloads.traces import BranchTrace, capture_trace
from tests.fixtures import bad_components

BUDGET = 8_000


@pytest.fixture(scope="module")
def micro_program():
    return build_micro("counted_loops", scale=0.2)


@pytest.fixture(scope="module")
def micro_npz(micro_program, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "counted_loops.npz"
    capture_trace(micro_program, max_instructions=BUDGET).save(path)
    return path


def counts(result):
    return (result.branches, result.branch_mispredicts, result.instructions)


# ----------------------------------------------------------------------
# Registry and source resolution
# ----------------------------------------------------------------------
class TestRegistry:
    def test_backend_registry_names(self):
        assert set(backend_names()) == {"cycle", "trace", "replay"}
        assert DEFAULT_BACKEND == "cycle"
        with pytest.raises(KeyError, match="unknown execution backend"):
            get_backend("emulate")

    def test_resolve_name_builds_program(self):
        source = resolve_workload("dispatch", scale=0.2)
        assert source.program is not None and source.trace_path is None

    def test_resolve_program_and_source_pass_through(self, micro_program):
        source = resolve_workload(micro_program)
        assert source.program is micro_program
        assert resolve_workload(source) is source

    def test_resolve_npz_path_is_trace(self, micro_npz):
        source = resolve_workload(str(micro_npz))
        assert source.trace_path == str(micro_npz)
        assert source.program is None
        assert source.name == "counted_loops"

    def test_unknown_workload_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_workload("solitaire")
        assert "counted_loops" in workload_names()

    def test_cycle_backend_rejects_stored_trace(self, micro_npz):
        source = WorkloadSource(name="t", trace_path=micro_npz)
        with pytest.raises(ValueError, match="needs a Program"):
            get_backend("cycle").run(
                presets.build("b2"), source, RunLimits(max_instructions=1000)
            )


# ----------------------------------------------------------------------
# The in-process trace store
# ----------------------------------------------------------------------
@pytest.fixture
def capture_calls(monkeypatch):
    """Empty the trace store and record every capture it makes."""
    calls = []

    def counting_capture(program, max_instructions):
        calls.append((program.name, max_instructions))
        return capture_trace(program, max_instructions=max_instructions)

    monkeypatch.setattr(registry, "capture_trace", counting_capture)
    TRACE_STORE.clear()
    yield calls
    TRACE_STORE.clear()


class TestTraceStore:
    def test_one_capture_per_program_content_and_limit(self, capture_calls):
        first = WorkloadSource(name="a", program=build_micro("dispatch", 0.2))
        again = WorkloadSource(name="b", program=build_micro("dispatch", 0.2))
        hits = TRACE_STORE.hits
        trace = first.branch_trace(BUDGET)
        assert again.branch_trace(BUDGET) is trace
        assert first.branch_trace(BUDGET) is trace
        assert capture_calls == [("dispatch", BUDGET)]
        assert TRACE_STORE.hits - hits == 2

    def test_a_different_limit_gets_its_own_entry(self, capture_calls):
        source = WorkloadSource(name="m", program=build_micro("dispatch", 0.2))
        short = source.branch_trace(1000)
        longer = source.branch_trace(2000)
        assert short.instruction_count == 1000
        assert longer.instruction_count == 2000
        assert len(capture_calls) == 2 and len(TRACE_STORE) == 2

    def test_same_name_different_content_does_not_collide(self, capture_calls):
        small = build_micro("counted_loops", scale=0.2)
        large = build_micro("counted_loops", scale=0.3)
        assert small.name == large.name
        a = WorkloadSource(name="m", program=small).branch_trace(None)
        b = WorkloadSource(name="m", program=large).branch_trace(None)
        assert len(capture_calls) == 2
        assert a.instruction_count != b.instruction_count

    def test_none_and_the_default_limit_share_one_entry(self, capture_calls):
        from repro.backends.base import DEFAULT_TRACE_INSTRUCTIONS

        source = WorkloadSource(name="m", program=build_micro("biased", 0.2))
        default = source.branch_trace(None)
        assert source.branch_trace(DEFAULT_TRACE_INSTRUCTIONS) is default
        assert capture_calls == [("biased", DEFAULT_TRACE_INSTRUCTIONS)]

    def test_least_recently_used_entry_is_evicted(self, capture_calls):
        program = build_micro("biased", scale=0.2)
        for limit in range(1, TRACE_STORE_SIZE + 1):
            TRACE_STORE.get(program, limit)
        TRACE_STORE.get(program, 1)  # touch: limit 2 is now the oldest
        TRACE_STORE.get(program, TRACE_STORE_SIZE + 1)
        assert len(TRACE_STORE) == TRACE_STORE_SIZE
        assert len(capture_calls) == TRACE_STORE_SIZE + 1
        TRACE_STORE.get(program, 1)
        assert len(capture_calls) == TRACE_STORE_SIZE + 1
        TRACE_STORE.get(program, 2)
        assert capture_calls[-1] == ("biased", 2)

    def test_stored_traces_are_read_only(self, capture_calls, micro_program):
        trace = TRACE_STORE.get(micro_program, BUDGET)
        with pytest.raises(ValueError):
            trace.taken[0] = not trace.taken[0]

    @pytest.mark.parametrize("preset", presets.PRESET_NAMES)
    def test_stored_trace_replays_like_a_fresh_capture(
        self, preset, capture_calls, micro_program
    ):
        limits = RunLimits(max_instructions=BUDGET)
        live = WorkloadSource(name="m", program=micro_program)
        fresh = WorkloadSource(
            name="m",
            trace=capture_trace(micro_program, max_instructions=BUDGET),
        )
        replay = get_backend("replay")
        stored = replay.run(presets.build(preset), live, limits)
        again = replay.run(presets.build(preset), live, limits)
        captured = replay.run(presets.build(preset), fresh, limits)
        assert counts(stored) == counts(again) == counts(captured)
        assert len(capture_calls) == 1

    def test_in_memory_trace_is_not_a_program(self, micro_program):
        trace = capture_trace(micro_program, max_instructions=1000)
        source = WorkloadSource(name="m", trace=trace)
        with pytest.raises(ValueError, match="needs a Program"):
            source.require_program("trace")

    def test_runner_fills_traces_for_pending_replay_jobs_only(
        self, capture_calls, micro_program, tmp_path
    ):
        def batch(backend):
            return [
                EvalJob(
                    system=preset,
                    spec=preset,
                    workload="m",
                    program=micro_program,
                    backend=backend,
                    max_instructions=BUDGET,
                )
                for preset in ("b2", "tourney")
            ]

        assert _with_trace(batch("trace")[0]).trace is None
        filled = _with_trace(batch("replay")[0])
        assert filled.trace is not None
        assert job_cache_key(filled) == job_cache_key(batch("replay")[0])
        TRACE_STORE.clear()
        capture_calls.clear()

        cold = ParallelRunner(cache=tmp_path).run(batch("replay"))
        assert len(capture_calls) == 1
        traced = ParallelRunner(cache=tmp_path / "t").run(batch("trace"))
        assert [counts(r) for r in cold] == [counts(r) for r in traced]
        TRACE_STORE.clear()
        warm = ParallelRunner(cache=tmp_path).run(batch("replay"))
        assert len(capture_calls) == 1  # cache hits never capture
        assert [counts(r) for r in warm] == [counts(r) for r in cold]


# ----------------------------------------------------------------------
# Bit-identity of the trace-driven backends
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("preset", presets.PRESET_NAMES)
    def test_replay_matches_trace_per_preset(
        self, preset, micro_program, micro_npz
    ):
        limits = RunLimits(max_instructions=BUDGET)
        live = WorkloadSource(name="m", program=micro_program)
        stored = WorkloadSource(name="m", trace_path=micro_npz)
        t = get_backend("trace").run(presets.build(preset), live, limits)
        r = get_backend("replay").run(presets.build(preset), stored, limits)
        assert counts(t) == counts(r)
        assert t.branches > 0 and t.branch_mispredicts > 0
        assert t.backend == "trace" and r.backend == "replay"

    def test_columnar_walker_matches_stream_walkers(self, micro_program):
        """drive_columns over the trace == drive_stream over the
        interpreter; the arithmetic skip only saves predictor queries."""
        trace = capture_trace(micro_program, max_instructions=BUDGET)
        walked = {}
        for label in ("columns", "stream"):
            predictor = presets.build("b2")
            width = predictor.config.fetch_width
            if label == "columns":
                w = drive_columns(
                    predictor, trace, trace_packets(trace, width), BUDGET
                )
            else:
                w = drive_stream(
                    predictor,
                    interpreter_stream(micro_program, BUDGET),
                    program_packets(micro_program, width),
                )
            walked[label] = (
                (w.instructions, w.branches, w.mispredicts),
                predictor.stats.predictions,
            )
        assert walked["columns"][0] == walked["stream"][0]
        assert walked["columns"][1] < walked["stream"][1]

    def test_stale_history_window_gates_the_skip(self, micro_program):
        """``no_replay`` repair keeps post-mispredict queries exact."""
        trace = capture_trace(micro_program, max_instructions=BUDGET)
        results = []
        for use_columns in (True, False):
            predictor = presets.build("b2", ghist_repair_mode="no_replay")
            width = predictor.config.fetch_width
            if use_columns:
                w = drive_columns(
                    predictor, trace, trace_packets(trace, width), BUDGET
                )
            else:
                w = drive_stream(
                    predictor,
                    interpreter_stream(micro_program, BUDGET),
                    program_packets(micro_program, width),
                )
            results.append(
                (w.instructions, w.branches, w.mispredicts,
                 predictor.stats.stale_history_queries)
            )
        assert results[0] == results[1]
        assert results[0][3] > 0  # the window was actually exercised

    def test_telemetry_forces_the_fallback_walker_and_matches(
        self, micro_program, micro_npz
    ):
        """Telemetry turns the skip off: replay then queries every packet,
        exactly as many as the ``trace`` backend, with identical counts."""
        limits = RunLimits(max_instructions=BUDGET)
        stored = WorkloadSource(name="m", trace_path=micro_npz)
        from repro.frontend.config import CoreConfig

        runs = {}
        for label in ("bare", "telemetry", "trace"):
            predictor = presets.build("b2")
            if label == "trace":
                result = get_backend("trace").run(
                    predictor,
                    WorkloadSource(name="m", program=micro_program),
                    limits,
                )
            else:
                result = get_backend("replay").run(
                    predictor,
                    stored,
                    limits,
                    core_config=CoreConfig(telemetry=label == "telemetry"),
                )
            runs[label] = (result, predictor.stats.predictions)
        bare, with_tel, trace = (
            runs[k][0] for k in ("bare", "telemetry", "trace")
        )
        assert counts(bare) == counts(with_tel) == counts(trace)
        assert with_tel.telemetry is not None and bare.telemetry is None
        assert runs["telemetry"][1] == runs["trace"][1] > runs["bare"][1]

    def test_non_inert_composition_replay_matches_trace(
        self, micro_program, micro_npz
    ):
        """A component that honestly learns on branchless packets turns the
        skip off; replay still reproduces ``trace`` query for query."""
        library = standard_library().with_params(
            "LEAK", lambda name, lat: bad_components.LeakyReset(name, lat)
        )
        topology = "LEAK2 > GTAG3 > BTB2 > BIM2"
        limits = RunLimits(max_instructions=BUDGET)
        runs = {}
        for backend, source in (
            ("trace", WorkloadSource(name="m", program=micro_program)),
            ("replay", WorkloadSource(name="m", trace_path=micro_npz)),
        ):
            predictor = compose(topology, library, ComposerConfig())
            assert not predictor.branchless_inert
            result = get_backend(backend).run(predictor, source, limits)
            runs[backend] = (counts(result), predictor.stats.predictions)
        assert runs["replay"] == runs["trace"]
        assert runs["trace"][0][1] > 0

    def test_scalar_pipeline_replay_matches_trace(self, micro_program):
        """fetch_width=1: the backend-overhead benchmark configuration."""
        def scalar_bimodal():
            library = standard_library(
                fetch_width=1, global_history_bits=16, gtag_history_bits=16
            )
            return compose(
                "BIM2",
                library,
                ComposerConfig(fetch_width=1, global_history_bits=16),
            )

        limits = RunLimits(max_instructions=BUDGET)
        live = WorkloadSource(name="m", program=micro_program)
        trace = capture_trace(micro_program, max_instructions=BUDGET)
        t = get_backend("trace").run(scalar_bimodal(), live, limits)
        predictor = scalar_bimodal()
        w = drive_columns(predictor, trace, trace_packets(trace, 1), BUDGET)
        assert counts(t) == (w.branches, w.mispredicts, w.instructions)


# ----------------------------------------------------------------------
# Capture -> save -> load -> replay round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_replay_across_processes(self, micro_program, micro_npz):
        reference = get_backend("trace").run(
            presets.build("tage_l"),
            WorkloadSource(name="m", program=micro_program),
            RunLimits(max_instructions=BUDGET),
        )
        script = (
            "from repro.eval.runner import run_workload\n"
            f"r = run_workload('tage_l', {str(micro_npz)!r}, "
            f"max_instructions={BUDGET}, backend='replay')\n"
            "print(r.branches, r.branch_mispredicts, r.instructions)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert tuple(map(int, proc.stdout.split())) == counts(reference)

    def test_schema1_trace_loads_but_cannot_replay(self, tmp_path):
        legacy = BranchTrace(
            pcs=np.array([4, 9], dtype=np.int64),
            types=np.zeros(2, dtype=np.uint8),
            taken=np.array([True, False]),
            targets=np.array([9, 10], dtype=np.int64),
            instruction_count=12,
        )
        path = tmp_path / "legacy.npz"
        legacy.save(path)
        loaded = BranchTrace.load(path)
        assert not loaded.replayable
        assert loaded.characterize()["branches"] == 2.0
        with pytest.raises(ValueError, match="schema-1"):
            get_backend("replay").run(
                presets.build("b2"),
                WorkloadSource(name="legacy", trace_path=path),
                RunLimits(max_instructions=12),
            )

    def test_run_workload_replay_equals_trace(self, micro_program, micro_npz):
        t = run_workload(
            "b2", micro_program, max_instructions=BUDGET, backend="trace"
        )
        r = run_workload(
            "b2", str(micro_npz), max_instructions=BUDGET, backend="replay"
        )
        assert counts(t) == counts(r)
        assert (t.cycles, t.ipc, t.flushes) == (0, 0.0, 0)


# ----------------------------------------------------------------------
# Metrics semantics
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Batch-kernel segment engine: cut edge cases
# ----------------------------------------------------------------------
class _NotTakenKernel:
    """Columnar twin of :class:`_NotTaken` (always predicts not-taken)."""

    def __init__(self, component):
        self.c = component

    def lookup(self, ctx, state):
        out = state.copy()
        sel = ctx.lane_valid & ~out.is_jump
        out.hit = out.hit | sel
        out.taken = np.where(sel, False, out.taken)
        return out

    def mutates(self, ctx):
        return np.zeros(ctx.P, dtype=bool)

    def commit(self, ctx, accepted):
        pass


class _NotTaken(PredictorComponent):
    """Stateless always-not-taken: every taken branch mispredicts."""

    def lookup(self, req, predict_in):
        out = predict_in[0].copy()
        for slot in out.slots:
            if slot.is_jump:
                continue
            slot.hit = True
            slot.taken = False
        return out, 0

    def storage(self):
        return StorageReport(self.name, sram_bits=0)

    def columnar_kernel(self):
        return _NotTakenKernel(self)


class TestKernelSegmentEdges:
    def test_zero_length_segment_when_first_packet_mispredicts(
        self, micro_program
    ):
        """An attempt whose first packet is impure accepts nothing and has
        no side effects — the driver walks that packet scalar instead."""
        trace = capture_trace(
            build_micro("steady_loop", scale=0.2), max_instructions=BUDGET
        )
        predictor = presets.build("b2")
        engine = engine_for(predictor)
        assert engine is not None
        cols = TraceColumns.from_trace(trace)
        bi, pc, remaining = 0, trace.entry_pc, BUDGET
        seg = engine.run(cols, pc, bi, min(64, cols.n_records), remaining)
        guard = 0
        while seg.packets and not seg.impure_next and guard < 100:
            bi += seg.records
            pc = seg.next_pc
            remaining -= seg.instructions
            seg = engine.run(
                cols, pc, bi, min(64, cols.n_records - bi), remaining
            )
            guard += 1
        # The engine stopped right before a known-impure packet (a cold
        # bimodal mispredicts steady_loop's first taken back-edge).
        assert seg.impure_next
        if seg.packets:
            bi += seg.records
            pc = seg.next_pc
            remaining -= seg.instructions
        before = predictor.stats.predictions
        again = engine.run(cols, pc, bi, min(64, cols.n_records - bi), remaining)
        assert (again.packets, again.records, again.instructions) == (0, 0, 0)
        assert again.branches == 0
        assert again.impure_next
        # A zero-accept attempt must not move any counter or table.
        assert predictor.stats.predictions == before

    @pytest.mark.parametrize("window", [1, 2, 3, 8])
    def test_segment_against_no_replay_window_boundary(self, window):
        """Stale no-replay windows gate the engine; for every corruption
        window length the kernel walk, the scalar columnar walk, and the
        full stream walk agree bit for bit — including segments that end
        exactly where a window opens or closes."""
        program = build_micro("counted_loops", scale=0.2)
        trace = capture_trace(program, max_instructions=BUDGET)
        sigs = []
        stale = []
        for mode in ("kernel", "scalar", "stream"):
            predictor = presets.build(
                "b2",
                ghist_repair_mode="no_replay",
                ghist_corruption_window=window,
            )
            width = predictor.config.fetch_width
            if mode == "stream":
                w = drive_stream(
                    predictor,
                    interpreter_stream(program, BUDGET),
                    program_packets(program, width),
                )
            else:
                engine = engine_for(predictor) if mode == "kernel" else None
                packets = trace_packets(trace, width)
                w = drive_columns(predictor, trace, packets, BUDGET, engine=engine)
            sigs.append((w.instructions, w.branches, w.mispredicts))
            stale.append(predictor.stats.stale_history_queries)
        assert sigs[0] == sigs[1] == sigs[2], f"window={window}"
        assert stale[0] == stale[1] == stale[2], f"window={window}"
        assert stale[0] > 0

    def test_all_mispredicts_degrade_to_scalar_without_double_counting(self):
        """When (nearly) every branch mispredicts, every attempt cuts at
        its first packet; the driver must fall back to the scalar walk
        with identical instruction/branch/mispredict accounting."""
        trace = capture_trace(
            build_micro("steady_loop", scale=0.2), max_instructions=BUDGET
        )

        def build():
            library = standard_library().with_params(
                "NT", lambda name, lat: _NotTaken(name, lat)
            )
            return compose("NT2", library, ComposerConfig())

        results = []
        for use_engine in (True, False):
            predictor = build()
            engine = engine_for(predictor) if use_engine else None
            if use_engine:
                assert engine is not None
            packets = trace_packets(trace, predictor.config.fetch_width)
            w = drive_columns(predictor, trace, packets, BUDGET, engine=engine)
            results.append((w.instructions, w.branches, w.mispredicts))
        assert results[0] == results[1]
        instructions, branches, mispredicts = results[0]
        assert branches > 0
        # steady_loop back-edges are taken: an always-not-taken payload
        # mispredicts nearly everything.
        assert mispredicts >= 0.9 * branches
        assert instructions <= BUDGET


class TestMetrics:
    def test_counts_result_mpki_uses_instructions(self, micro_program):
        r = run_workload(
            "b2", micro_program, max_instructions=BUDGET, backend="trace"
        )
        assert r.mpki == pytest.approx(
            1000.0 * r.branch_mispredicts / r.instructions
        )
        result = counts_result("s", "w", WalkCounts(4000, 200, 10), "trace")
        assert result.mpki == pytest.approx(2.5)
        assert result.branch_accuracy == pytest.approx(0.95)
        # Zero denominators: no instructions, no branches.
        empty = counts_result("s", "w", WalkCounts(0, 0, 0), "trace")
        assert empty.mpki == 0.0
        assert empty.branch_accuracy == 1.0

    def test_trace_backend_applies_default_budget(self):
        # A 6-instruction program halts long before the default cap.
        program = build_micro("steady_loop", scale=0.1)
        backend = TraceBackend()
        result = backend.run(
            presets.build("b2"),
            WorkloadSource(name="m", program=program),
            RunLimits(),
        )
        assert 0 < result.instructions <= 1_000_000


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_trace_capture_then_replay(self, tmp_path, capsys):
        npz = tmp_path / "dispatch.npz"
        rc = cli.main(
            ["trace", "capture", "--workload", "dispatch", "--scale", "0.2",
             "--out", str(npz), "--max-instructions", str(BUDGET)]
        )
        assert rc == 0 and npz.exists()
        capture_out = capsys.readouterr().out
        assert "captured" in capture_out

        rc = cli.main(
            ["trace", "replay", str(npz), "--predictor", "b2",
             "--max-instructions", str(BUDGET)]
        )
        assert rc == 0
        replay_out = capsys.readouterr().out
        assert "backend: replay" in replay_out

    def test_run_backend_flag_reproduces_counts(self, tmp_path, capsys):
        npz = tmp_path / "m.npz"
        rc = cli.main(
            ["trace", "capture", "--workload", "counted_loops", "--scale",
             "0.2", "--out", str(npz), "--max-instructions", str(BUDGET)]
        )
        assert rc == 0
        capsys.readouterr()

        outputs = {}
        for backend, workload in (
            ("trace", "counted_loops"),
            ("replay", str(npz)),
        ):
            rc = cli.main(
                ["run", "--predictor", "b2", "--workload", workload,
                 "--scale", "0.2", "--backend", backend,
                 "--max-instructions", str(BUDGET)]
            )
            assert rc == 0
            outputs[backend] = capsys.readouterr().out
            assert f"backend: {backend}" in outputs[backend]

        def extract(text, field):
            for token in text.split():
                if token.startswith(field + "="):
                    return int(token.split("=")[1])
            raise AssertionError(f"{field} not in output")

        for field in ("branches", "mispredicts"):
            assert extract(outputs["trace"], field) == extract(
                outputs["replay"], field
            )

    def test_capture_refuses_trace_input(self, tmp_path, capsys):
        npz = tmp_path / "x.npz"
        capture_trace(
            build_micro("dispatch", scale=0.2), max_instructions=1000
        ).save(npz)
        rc = cli.main(
            ["trace", "capture", "--workload", str(npz), "--out",
             str(tmp_path / "y.npz")]
        )
        assert rc == 2
        assert "already a stored trace" in capsys.readouterr().err
