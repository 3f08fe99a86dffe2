"""The ``replay`` backend: trace replay with no interpreter in the loop.

Drives a composed predictor directly from stored
:class:`~repro.workloads.traces.BranchTrace` npz columns — the
CBP/ChampSim-style workflow that makes large-scale predictor studies
tractable.  Two properties make it fast:

1. **No ISA execution.**  The architectural PC stream is fully determined
   by the trace's entry PC plus its control-flow records (non-CFI
   instructions advance the PC by one), so the stream is *reconstructed*
   from the columnar trace in batched chunks; register/memory semantics
   never run.  Pre-decoded packets come from the trace's static slot
   tables, bit-identical to what the program image would pre-decode to.
2. **Plain runs are consumed arithmetically.**  Between two control-flow
   records every executed address is statically branch-free, so every
   aligned packet that fits entirely inside the gap is branchless; the
   columnar walker (:func:`drive_columns`) accounts those packets with
   integer arithmetic — no per-instruction records, no predictor query.
   This is exact because a packet with no control-flow instruction cannot
   change predictor state: the composed pipeline shifts zero outcomes into
   its histories and components observe an all-False ``br_mask`` (the
   ``branchless_inert`` contract, rule CON008).  Only packets containing
   a control-flow record reach the predictor, so replay cost is
   proportional to *branchy* packets only.

Both transformations are exact: replay reproduces the ``trace`` backend's
branch and mispredict counts bit for bit (asserted by the test suite and
``benchmarks/bench_backends.py``).  The skip is gated off inside the same
walker whenever it could be observed — a component that learns on
branchless packets, an attached telemetry collector (event counts must
stay faithful), or an active no-replay stale-history window (eliding a
query would stretch the corruption window, §VI-B) — and the walker then
queries those packets like the ``trace`` backend's
:func:`~repro.backends.packets.drive_stream` does.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import (
    ExecutionBackend,
    RunLimits,
    attach_collector,
    counts_result,
    register_backend,
)
from repro.backends.packets import PacketCache, WalkCounts
from repro.core.composer import ComposedPredictor
from repro.core.prediction import INVALID_SLOT, PLAIN_SLOT, PreDecodedSlot
from repro.eval.metrics import RunResult
from repro.frontend.config import CoreConfig
from repro.workloads.registry import WorkloadSource
from repro.workloads.traces import (
    BranchTrace,
    SLOT_COND,
    SLOT_JAL,
    SLOT_JAL_CALL,
    SLOT_JALR,
    SLOT_JALR_RET,
    SLOT_PLAIN,
    TYPE_COND,
)

#: Branch records are decoded from npz columns to plain Python lists in
#: chunks of this many entries, keeping per-record numpy scalar overhead
#: out of the walk loop without materializing huge traces at once.
_CHUNK = 1 << 16

#: Adaptive segment-engine window (branch records per vectorized attempt).
#: The next window tracks twice the last acceptance — full acceptance
#: doubles the window, early cuts shrink it toward the cut distance — so
#: mispredict-dense regions pay for narrow evaluations only.
_WINDOW_START = 256
_WINDOW_MIN = 8
_WINDOW_MAX = 4096
#: Walked packets forced through the scalar path after the engine accepts
#: nothing, amortizing failed vectorized attempts in impure regions.
_SCALAR_QUOTA = 8
#: Engine disengagement: when the decayed average acceptance per attempt
#: drops below the engine's ``engage_min`` (a per-composition break-even
#: scaled by kernel count), a vectorized attempt costs more than walking
#: its yield through the scalar path, so the driver walks
#: ``_DISENGAGE_QUOTA`` packets scalar between probes instead.
_DISENGAGE_QUOTA = 24


def trace_packets(trace: BranchTrace, fetch_width: int) -> PacketCache:
    """Pre-decoded packets rebuilt from the trace's static slot tables.

    Produces slots field-identical to what
    :func:`~repro.core.prediction.predecode_slot` yields from the program
    image (SFB conversion is a cycle-core decode feature and does not
    apply to the trace-driven backends).
    """
    if trace.slot_kinds is None or trace.slot_targets is None:
        raise ValueError(
            "trace has no pre-decode slot tables (schema-1 capture); "
            "re-capture it with this version to make it replayable"
        )
    kinds = trace.slot_kinds.tolist()
    targets = trace.slot_targets.tolist()
    n = len(kinds)

    def slot_fn(pc: int) -> PreDecodedSlot:
        if pc < 0 or pc >= n:
            return INVALID_SLOT
        kind = kinds[pc]
        if kind == SLOT_PLAIN:
            return PLAIN_SLOT
        target = targets[pc]
        direct = None if target < 0 else target
        if kind == SLOT_COND:
            return PreDecodedSlot(is_cond_branch=True, direct_target=direct)
        if kind == SLOT_JAL:
            return PreDecodedSlot(is_jal=True, direct_target=direct)
        if kind == SLOT_JAL_CALL:
            return PreDecodedSlot(is_jal=True, is_call=True, direct_target=direct)
        if kind == SLOT_JALR:
            return PreDecodedSlot(is_jalr=True)
        if kind == SLOT_JALR_RET:
            return PreDecodedSlot(is_jalr=True, is_ret=True)
        raise ValueError(f"corrupt slot table: unknown kind {kind} at pc {pc}")

    return PacketCache(slot_fn, fetch_width)


def _branch_chunk(trace: BranchTrace, start: int):
    """Branch records ``[start, start + _CHUNK)`` of ``trace`` as plain
    lists: PCs, is-conditional flags, directions, next PCs."""
    end = start + _CHUNK
    return (
        trace.pcs[start:end].tolist(),
        (trace.types[start:end] == TYPE_COND).tolist(),
        trace.taken[start:end].tolist(),
        trace.targets[start:end].tolist(),
    )


def drive_columns(
    predictor: ComposedPredictor,
    trace: BranchTrace,
    packets: PacketCache,
    max_instructions: Optional[int] = None,
    engine=None,
) -> WalkCounts:
    """Drive ``predictor`` straight off the branch columns of ``trace``.

    Record-free equivalent of :func:`~repro.backends.packets.drive_stream`:
    the PC stream between two control-flow records is a known sequential
    run, so packets are formed from the columns without materializing a
    record per instruction, and each one goes through the standard
    predict/resolve/commit protocol, replicating ``drive_stream``'s walk
    record for record.

    For a :attr:`~repro.core.composer.ComposedPredictor.branchless_inert`
    predictor with no telemetry collector attached, every aligned packet
    that fits entirely before the next branch PC is branchless and
    state-neutral — its instructions are *counted*, never walked.  Only
    packets containing a branch record (and plain packets inside an active
    no-replay stale-history window, which must still be queried, §VI-B)
    reach the predictor.  Otherwise every packet is queried.

    With a :class:`~repro.kernels.engine.SegmentEngine` (built by
    :func:`repro.kernels.engine.engine_for` when every component
    advertises a ``columnar_kernel``) on that same skipping walk, the
    engine first tries to batch-predict a window of upcoming branch
    records against the frozen tables and commit the maximal pure prefix
    in one step (:meth:`~repro.kernels.engine.SegmentEngine.run`).  The
    scalar body then resumes at the first impure packet — the
    mispredicting or state-writing one — so resolve/repair ordering is
    untouched.  Stale no-replay history windows disable the engine (and
    the arithmetic skip) until they drain.
    """
    skip = predictor.branchless_inert and predictor.telemetry is None
    if not skip:
        engine = None
    total = trace.instruction_count
    n = total if max_instructions is None else min(total, max_instructions)
    width = packets.fetch_width
    packet = packets.packet
    predict = predictor.predict
    commit = predictor.commit_packet
    resolve = predictor.resolve_mispredict

    n_br = len(trace)
    if engine is not None:
        from repro.kernels.engine import TraceColumns

        cols = TraceColumns.from_trace(trace)

    # Branch record ``chunk_start + ci`` is entry ``ci`` of the decoded
    # chunk; ``next_branch`` is its PC, None once every record is consumed.
    chunk_start = 0
    b_pcs, b_conds, b_takens, b_targets = _branch_chunk(trace, 0)
    ci = 0
    next_branch = b_pcs[0] if b_pcs else None

    instructions = 0
    branches = 0
    mispredicts = 0
    pc = trace.entry_pc
    window = _WINDOW_START
    scalar_quota = 0
    accept_avg = float(_WINDOW_START)
    probe_backoff = 1
    engage_min = engine.engage_min if engine is not None else 0
    while instructions < n:
        if (
            engine is not None
            and scalar_quota == 0
            and next_branch is not None
            and not predictor.stale_window_active
        ):
            bi = chunk_start + ci
            k = min(window, n_br - bi)
            seg = engine.run(cols, pc, bi, k, n - instructions)
            accept_avg = 0.5 * accept_avg + 0.5 * seg.records
            if seg.packets:
                instructions += seg.instructions
                branches += seg.branches
                bi += seg.records
                pc = seg.next_pc
                window = min(max(2 * seg.records, _WINDOW_MIN), _WINDOW_MAX)
                if bi < n_br:
                    if bi - chunk_start >= len(b_pcs):
                        chunk_start = bi
                        b_pcs, b_conds, b_takens, b_targets = _branch_chunk(
                            trace, bi
                        )
                    ci = bi - chunk_start
                    next_branch = b_pcs[ci]
                else:
                    next_branch = None
                if accept_avg < engage_min:
                    # Mispredict-dense region: segments are too short to
                    # amortize attempts; walk scalar between probes,
                    # backing off while the region stays dense.
                    scalar_quota = _DISENGAGE_QUOTA * probe_backoff
                    probe_backoff = min(probe_backoff * 2, 8)
                elif seg.impure_next:
                    # The next packet is known to mispredict or write
                    # state: walk exactly it scalar, then retry.
                    probe_backoff = 1
                    scalar_quota = 1
                else:
                    probe_backoff = 1
                    continue
            elif accept_avg < engage_min:
                scalar_quota = _DISENGAGE_QUOTA * probe_backoff
                probe_backoff = min(probe_backoff * 2, 8)
            elif seg.impure_next:
                scalar_quota = 1
            else:
                # Nothing pure up front for window-shape reasons: walk
                # scalar for a while before the next (costly) attempt.
                window = max(window // 2, _WINDOW_MIN)
                scalar_quota = _SCALAR_QUOTA

        fetch_pc = pc
        span = width - (fetch_pc % width)
        gap = n if next_branch is None else next_branch - fetch_pc
        if skip and gap >= span and not predictor.stale_window_active:
            # Whole packet is branch-free: account it without walking.
            if instructions + span <= n:
                instructions += span
                pc = fetch_pc + span
            else:
                instructions = n
            continue

        if scalar_quota:
            scalar_quota -= 1
        slots = packet(fetch_pc)
        result = predict(fetch_pc, slots, None)
        final_slots = result.final.slots
        mispredict_info = None
        consumed = 0
        while True:
            # The record at ``pc``: a stored branch record, or sequential.
            if next_branch == pc:
                next_pc = b_targets[ci]
                is_cond = b_conds[ci]
                taken = b_takens[ci]
                ci += 1
                if ci == len(b_pcs):
                    chunk_start += ci
                    b_pcs, b_conds, b_takens, b_targets = _branch_chunk(
                        trace, chunk_start
                    )
                    ci = 0
                    next_branch = b_pcs[0] if b_pcs else None
                else:
                    next_branch = b_pcs[ci]
            else:
                next_pc = pc + 1
                is_cond = False
                taken = False
            slot_idx = consumed
            instructions += 1
            if is_cond:
                branches += 1
                if final_slots[slot_idx].taken != taken:
                    mispredicts += 1
                    if mispredict_info is None:
                        mispredict_info = (
                            slot_idx,
                            taken,
                            next_pc if taken else None,
                        )
            consumed += 1
            ends_packet = (
                next_pc != pc + 1
                or consumed >= span
                or (mispredict_info is not None and result.cut == slot_idx)
            )
            pc = next_pc
            if ends_packet or instructions >= n:
                break
        if mispredict_info is not None:
            slot_idx, taken, target = mispredict_info
            resolve(result.ftq_id, slot_idx, taken, target)
        commit(result.ftq_id)
    return WalkCounts(instructions, branches, mispredicts)


#: ``perfbench/harness.py`` patches this name as well as ``drive_columns``
#: when it traces a run; the alias keeps that lookup working.
_drive_columns_kernels = drive_columns


class ReplayBackend(ExecutionBackend):
    name = "replay"

    def run(
        self,
        predictor: ComposedPredictor,
        source: WorkloadSource,
        limits: RunLimits,
        core_config: Optional[CoreConfig] = None,
        system: Optional[str] = None,
        trace: Optional[object] = None,
    ) -> RunResult:
        branch_trace = source.branch_trace(limits.max_instructions)
        collector = attach_collector(predictor, core_config, trace)
        try:
            packets = trace_packets(branch_trace, predictor.config.fetch_width)
            # Looked up at call time so instrumentation that patches
            # ``repro.kernels.engine.engine_for`` sees every build.
            from repro.kernels.engine import engine_for

            counts = drive_columns(
                predictor,
                branch_trace,
                packets,
                limits.max_instructions,
                engine=engine_for(predictor),
            )
            summary = collector.summary() if collector is not None else None
        finally:
            if collector is not None:
                predictor.detach_telemetry()
        return counts_result(
            system or predictor.describe(),
            source.name,
            counts,
            self.name,
            telemetry=summary,
        )


register_backend(ReplayBackend())
