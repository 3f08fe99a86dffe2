"""The columnar segment engine: batch-predict branch segments between
mispredicts.

The replay walker (:func:`repro.backends.replay.drive_columns`) otherwise
steps packet by packet through Python component code.  This engine instead
takes a *window* of upcoming branch records, reconstructs every fetch
packet the walker would form, evaluates the composed topology over all of
them in one vectorized pass against the **frozen** component tables, and
accepts the maximal prefix of *pure* packets — packets that are neither
mispredicted nor would write any component state.  Pure packets need no
table writes at all: committing them only advances counts, the global
history register, and a handful of managed counters (loop iteration
counts, the TAGE update counter), all reproducible with closed-form
arithmetic.  The first impure packet — a mispredict, an allocation, any
counter movement — cuts the segment and is re-run through the scalar
predict/resolve/commit path, so update ordering, repair semantics, and
no-replay stale-history windows stay exactly the scalar code's.

Correctness hinges on one induction: packet ``q``'s vectorized values are
exact as long as every packet before it is pure (no state changed, so the
frozen tables are still current), and the first non-pure packet is
therefore detected exactly; garbage computed for packets *after* it can
never move the cut earlier.  Over-marking a packet as state-changing is
always safe — it only shortens the accepted prefix — so the per-kernel
``mutates`` rules may be conservative where exactness is expensive.

Eligibility is per-composition (:func:`engine_for`): every component must
advertise a kernel via ``columnar_kernel()`` (capability CON009, the
columnar sibling of ``branchless_inert``/CON008), the topology must be
override-only, and the composition must not use local/path history or CFI
serialization.  Anything else falls back to the scalar walker.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.topology import Arbitrate, Leaf, Override, TopologyNode
from repro.workloads.traces import (
    TYPE_CALL,
    TYPE_COND,
    TYPE_JAL,
    TYPE_JALR,
    TYPE_RET,
)
from repro.kernels.vector_ops import rolling_histories


class ColState:
    """Columnar :class:`~repro.core.prediction.SlotPrediction` grids.

    One row per fetch packet, one column per *absolute* lane of the
    aligned fetch group (lane = pc - aligned_base).  Lanes below a
    packet's entry offset are outside the packet; kernels must gate
    writes with ``ctx.lane_valid`` so those lanes keep the fall-through
    default, exactly as the scalar vectors never materialize them.
    ``target`` uses -1 for the scalar ``None``.
    """

    __slots__ = ("hit", "is_branch", "is_jump", "taken", "target")

    @classmethod
    def fallthrough(cls, packets: int, width: int) -> "ColState":
        state = cls.__new__(cls)
        state.hit = np.zeros((packets, width), dtype=bool)
        state.is_branch = np.zeros((packets, width), dtype=bool)
        state.is_jump = np.zeros((packets, width), dtype=bool)
        state.taken = np.zeros((packets, width), dtype=bool)
        state.target = np.full((packets, width), -1, dtype=np.int64)
        return state

    def copy(self) -> "ColState":
        clone = ColState.__new__(ColState)
        clone.hit = self.hit.copy()
        clone.is_branch = self.is_branch.copy()
        clone.is_jump = self.is_jump.copy()
        clone.taken = self.taken.copy()
        clone.target = self.target.copy()
        return clone


def merge_by_hit_vec(winner: ColState, fallback: ColState) -> ColState:
    """Columnar :func:`repro.core.topology.merge_by_hit`."""
    sel = winner.hit
    merged = ColState.__new__(ColState)
    merged.hit = np.where(sel, winner.hit, fallback.hit)
    merged.is_branch = np.where(sel, winner.is_branch, fallback.is_branch)
    merged.is_jump = np.where(sel, winner.is_jump, fallback.is_jump)
    merged.taken = np.where(sel, winner.taken, fallback.taken)
    merged.target = np.where(sel, winner.target, fallback.target)
    return merged


class TraceColumns:
    """Numpy views over the branch-trace columns the engine consumes."""

    __slots__ = ("pcs", "types", "taken", "targets", "slot_targets", "n_records")

    @classmethod
    def from_trace(cls, trace) -> "TraceColumns":
        cols = cls.__new__(cls)
        cols.pcs = np.asarray(trace.pcs, dtype=np.int64)
        cols.types = np.asarray(trace.types)
        cols.taken = np.asarray(trace.taken, dtype=bool)
        cols.targets = np.asarray(trace.targets, dtype=np.int64)
        cols.slot_targets = np.asarray(trace.slot_targets, dtype=np.int64)
        cols.n_records = len(cols.pcs)
        return cols


class SegmentContext:
    """Everything one engine window computes about its fetch packets.

    Built by :meth:`SegmentEngine._build_context` from ``K`` consecutive
    branch records; kernels read the per-packet columns at lookup time and
    the record grids at mutation time, stashing per-component scratch in
    ``scratch`` between the two phases.
    """

    __slots__ = (
        "P", "W", "scratch",
        # per-packet lookup columns
        "fetch_pc", "aligned", "offset", "lane_valid", "req_ghist",
        # per-packet record grids (absolute lanes)
        "cond_grid", "rtaken_grid", "upd_cond",
        # architectural-cut columns
        "has_cfi", "cfi_lane", "cfi_is_cond", "cfi_is_jal", "cfi_is_jalr",
        "cfi_static_target", "cfi_target",
        # accounting (cumulative through packet p, inclusive)
        "first_k", "instr_incl", "branches_incl", "pos_incl", "jumps_incl",
        "next_fp", "rolled", "n_records",
    )


#: Returned when the engine accepts nothing (the caller falls back to the
#: scalar walker for at least one packet).  ``impure_next`` reports *why*
#: the segment ended: True means the packet at the stop position is known
#: to mispredict or write state, so the caller should walk exactly that
#: packet through the scalar path rather than re-attempt the engine on it.
class EngineResult:
    __slots__ = (
        "packets", "records", "instructions", "branches", "next_pc",
        "impure_next",
    )

    def __init__(
        self, packets, records, instructions, branches, next_pc,
        impure_next=False,
    ):
        self.packets = packets
        self.records = records
        self.instructions = instructions
        self.branches = branches
        self.next_pc = next_pc
        self.impure_next = impure_next


_NO_PROGRESS = EngineResult(0, 0, 0, 0, 0)
_NO_PROGRESS_IMPURE = EngineResult(0, 0, 0, 0, 0, impure_next=True)


class _VecLeaf:
    __slots__ = ("kernel", "latency")

    def __init__(self, kernel, latency: int):
        self.kernel = kernel
        self.latency = latency

    def evaluate(self, ctx: SegmentContext, depth: int) -> List[Optional[ColState]]:
        out = self.kernel.lookup(ctx, ColState.fallthrough(ctx.P, ctx.W))
        staged: List[Optional[ColState]] = [None] * depth
        for d in range(self.latency, depth + 1):
            staged[d - 1] = out
        return staged


class _VecOverride:
    __slots__ = ("kernel", "latency", "lo")

    def __init__(self, kernel, latency: int, lo):
        self.kernel = kernel
        self.latency = latency
        self.lo = lo

    def evaluate(self, ctx: SegmentContext, depth: int) -> List[Optional[ColState]]:
        staged = self.lo.evaluate(ctx, depth)
        predict_in = _first_available_vec(staged, self.latency, ctx)
        out = self.kernel.lookup(ctx, predict_in)
        result = list(staged)
        prev_below = prev_merged = None
        for d in range(self.latency, depth + 1):
            below = staged[d - 1]
            if below is None:
                result[d - 1] = out
            elif below is prev_below:
                result[d - 1] = prev_merged
            else:
                prev_below = below
                prev_merged = merge_by_hit_vec(out, below)
                result[d - 1] = prev_merged
        return result


def _first_available_vec(
    staged: List[Optional[ColState]], stage: int, ctx: SegmentContext
) -> ColState:
    for d in range(stage, 0, -1):
        state = staged[d - 1]
        if state is not None:
            return state
    return ColState.fallthrough(ctx.P, ctx.W)


def _vectorize(node: TopologyNode):
    """Mirror a scalar topology with kernel-backed nodes, or None."""
    if isinstance(node, Leaf):
        kernel = node.component.columnar_kernel()
        if kernel is None:
            return None
        return _VecLeaf(kernel, node.component.latency)
    if isinstance(node, Override):
        lo = _vectorize(node.lo)
        if lo is None:
            return None
        kernel = node.hi.columnar_kernel()
        if kernel is None:
            return None
        return _VecOverride(kernel, node.hi.latency, lo)
    assert isinstance(node, Arbitrate)
    return None  # learned selection is not vectorized yet


def _collect_kernels(node) -> List[object]:
    if isinstance(node, _VecLeaf):
        return [node.kernel]
    return _collect_kernels(node.lo) + [node.kernel]


def engine_for(predictor) -> Optional["SegmentEngine"]:
    """Build a segment engine for ``predictor``, or None when ineligible.

    The gate mirrors the preconditions ``drive_columns`` places on its
    arithmetic skip (a ``branchless_inert`` predictor) plus the
    columnar-specific ones: override-only topology, kernels for every
    component, matching fetch widths, a <=64-bit global history (the
    rolling-history builder's register width), and no local/path history
    (their providers are not columnarized).  A component that declares a
    :class:`repro.spec.ComponentSpec` must also declare batch-replay
    eligibility there: a spec whose kernel class is ``"none"`` disowns
    any reachable ``columnar_kernel``, so the engine refuses it even if
    one exists (SPEC006 keeps the two in agreement for the shipped
    library).  Spec-less third-party components fall back to kernel
    presence alone.  Telemetry and stale-history windows are runtime
    conditions checked by ``drive_columns``, not here.
    """
    config = predictor.config
    if config.serialize_cfi or config.global_history_bits > 64:
        return None
    if predictor._uses_local or predictor._uses_path:
        return None
    if not predictor.branchless_inert:
        return None
    for component in predictor.components:
        width = getattr(component, "fetch_width", None)
        if width is not None and width != config.fetch_width:
            return None
        try:
            spec = component.spec()
        except Exception:
            spec = None
        if spec is not None and spec.kernel == "none":
            return None
    root = _vectorize(predictor.topology)
    if root is None:
        return None
    return SegmentEngine(predictor, root)


class SegmentEngine:
    """Vectorized pure-packet evaluator for one composed predictor."""

    def __init__(self, predictor, root):
        self.predictor = predictor
        self.root = root
        self.kernels = _collect_kernels(root)
        self.width = predictor.config.fetch_width
        self.depth = predictor.depth
        self.ghist_bits = predictor.config.global_history_bits
        #: Average accepted records per attempt below which the driver
        #: should disengage the engine.  An attempt's numpy overhead is
        #: roughly flat per kernel while the scalar walk it replaces costs
        #: one Python predict/commit round per component, so cheap
        #: compositions (few kernels) need longer pure segments to
        #: amortize an attempt than deep ones do.
        self.engage_min = max(8.0, 48.0 / max(len(self.kernels), 1))

    # ------------------------------------------------------------------
    def _build_context(
        self, cols: TraceColumns, pc0: int, bi: int, k: int, ghist0: int
    ) -> SegmentContext:
        W = self.width
        bpc = cols.pcs[bi : bi + k]
        btype = cols.types[bi : bi + k]
        btaken = cols.taken[bi : bi + k]
        btgt = cols.targets[bi : bi + k]
        K = len(bpc)
        is_cond = btype == TYPE_COND
        rec_idx = np.arange(K)

        # --- packetization: group records exactly as the walker fetches.
        # tr[k]: the record transfers control somewhere other than pc + 1
        # (the walker only ends a packet on such a transfer or at the span
        # boundary; degenerate taken-to-next-pc transfers keep walking).
        tr = btgt != bpc + 1
        last_tr_excl = np.empty(K, dtype=np.int64)
        last_tr_excl[0] = -1
        if K > 1:
            np.maximum.accumulate(
                np.where(tr, rec_idx, -1)[:-1], out=last_tr_excl[1:]
            )
        seq_start = np.where(
            last_tr_excl >= 0, btgt[np.maximum(last_tr_excl, 0)], pc0
        )
        # The fetch PC of the packet holding record k: the sequential-run
        # start if the record sits in the run's first packet, else the
        # aligned base of the record's own fetch group.
        first_boundary = seq_start - seq_start % W + W
        pkt_start = np.where(bpc < first_boundary, seq_start, bpc - bpc % W)
        new_pkt = np.empty(K, dtype=bool)
        new_pkt[0] = True
        if K > 1:
            new_pkt[1:] = tr[:-1] | (pkt_start[1:] != pkt_start[:-1])
        pid = np.cumsum(new_pkt) - 1
        P = int(pid[-1]) + 1
        first_k = np.flatnonzero(new_pkt)
        last_k = np.empty(P, dtype=np.int64)
        last_k[:-1] = first_k[1:] - 1
        last_k[-1] = K - 1

        ctx = SegmentContext.__new__(SegmentContext)
        ctx.P, ctx.W = P, W
        ctx.scratch = {}
        ctx.n_records = K
        ctx.first_k = first_k
        ctx.fetch_pc = pkt_start[first_k]
        ctx.aligned = ctx.fetch_pc - ctx.fetch_pc % W
        ctx.offset = ctx.fetch_pc % W
        ctx.lane_valid = np.arange(W)[None, :] >= ctx.offset[:, None]
        lane = bpc - ctx.aligned[pid]

        # --- instruction accounting (cumulative, inclusive of packet p).
        prev_end = np.empty(K, dtype=np.int64)
        prev_end[0] = pc0
        prev_end[1:] = btgt[:-1]
        cum_instr = np.cumsum(bpc - prev_end + 1)
        end_tr = tr[last_k]
        # A packet whose last record falls through runs on to the span end;
        # the driver resumes from next_fp, so the trailing plains are
        # charged here and never recounted.
        trailing = np.where(end_tr, 0, ctx.aligned + W - (bpc[last_k] + 1))
        ctx.instr_incl = cum_instr[last_k] + trailing
        ctx.next_fp = np.where(end_tr, btgt[last_k], ctx.aligned + W)
        ctx.branches_incl = np.cumsum(is_cond)[last_k]

        # --- architectural cut: the first taken record is the packet's CFI
        # (for pure packets it coincides with the predicted cut).
        first_taken = np.minimum.reduceat(
            np.where(btaken, rec_idx, K), first_k
        )
        ctx.has_cfi = first_taken < K
        safe_ft = np.minimum(first_taken, K - 1)
        ctx.cfi_lane = np.where(ctx.has_cfi, lane[safe_ft], -1)
        cfi_type = btype[safe_ft]
        ctx.cfi_is_cond = ctx.has_cfi & (cfi_type == TYPE_COND)
        ctx.cfi_is_jal = ctx.has_cfi & (
            (cfi_type == TYPE_JAL) | (cfi_type == TYPE_CALL)
        )
        ctx.cfi_is_jalr = ctx.has_cfi & (
            (cfi_type == TYPE_JALR) | (cfi_type == TYPE_RET)
        )
        ctx.cfi_static_target = np.where(
            ctx.has_cfi, cols.slot_targets[bpc[safe_ft]], -1
        )
        ctx.jumps_incl = np.cumsum(ctx.cfi_is_jal | ctx.cfi_is_jalr)

        # --- update gating: committed br_mask covers conditional records at
        # or before the packet's cut (everything the walker fetched).
        upd_rec = is_cond & (rec_idx <= first_taken[pid])

        ctx.cond_grid = np.zeros((P, W), dtype=bool)
        ctx.cond_grid[pid[is_cond], lane[is_cond]] = True
        ctx.rtaken_grid = np.zeros((P, W), dtype=bool)
        ctx.rtaken_grid[pid, lane] = btaken
        ctx.upd_cond = np.zeros((P, W), dtype=bool)
        ctx.upd_cond[pid[upd_rec], lane[upd_rec]] = True

        # --- rolling global history: the register value each packet's
        # lookup observes, and the value to restore after the last accepted
        # packet.
        outcome_count = np.cumsum(upd_rec)
        ctx.pos_incl = outcome_count[last_k]
        ctx.rolled = rolling_histories(
            ghist0, btaken[upd_rec], self.ghist_bits
        )
        pos_before = np.empty(P, dtype=np.int64)
        pos_before[0] = 0
        pos_before[1:] = ctx.pos_incl[:-1]
        ctx.req_ghist = ctx.rolled[pos_before]
        ctx.cfi_target = None  # filled after topology evaluation
        return ctx

    # ------------------------------------------------------------------
    def run(
        self, cols: TraceColumns, pc0: int, bi: int, k: int, budget: int
    ) -> EngineResult:
        """Accept the longest pure-packet prefix of the next ``k`` records.

        Commits everything the scalar walker would have committed for those
        packets (counts, global history, managed component state) and
        returns the accepted extent; accepting zero packets has no side
        effects at all.
        """
        predictor = self.predictor
        ctx = self._build_context(cols, pc0, bi, k, predictor._global.read())
        P = ctx.P
        # Never accept the window's final packet unless the trace ends with
        # it: later records could still extend it.
        max_packets = P if bi + ctx.n_records == cols.n_records else P - 1
        if max_packets <= 0:
            return _NO_PROGRESS

        staged = self.root.evaluate(ctx, self.depth)
        final = staged[-1]
        if final is None:  # pragma: no cover - depth >= root latency
            final = ColState.fallthrough(P, ctx.W)

        # The walker resolves only direction mispredicts on conditional
        # records, and it checks every record it walks — including records
        # beyond a degenerate (taken-to-pc+1) cut.
        wrong = ((final.taken != ctx.rtaken_grid) & ctx.cond_grid).any(axis=1)

        # The committed cfi_target: static targets for conditional/JAL CFIs
        # (pre-decode recomputes them), the composed prediction for JALR
        # (replay never corrects targets, so the BTB learns the predicted
        # one, exactly as the scalar path does).
        rows = np.arange(P)
        lane = np.clip(ctx.cfi_lane, 0, ctx.W - 1)
        ctx.cfi_target = np.where(
            ctx.cfi_is_jalr, final.target[rows, lane], ctx.cfi_static_target
        )

        mutating = wrong
        for kernel in self.kernels:
            mutating = mutating | kernel.mutates(ctx)

        impure = np.flatnonzero(mutating)
        accepted = int(impure[0]) if len(impure) else P
        impure_at = accepted
        accepted = min(accepted, max_packets)
        accepted = min(
            accepted, int(np.searchsorted(ctx.instr_incl, budget, side="right"))
        )
        # Whether the packet the scalar walker resumes at is known-impure
        # (rather than the stop being a window/budget artifact).
        impure_next = accepted == impure_at and impure_at < P
        if accepted <= 0:
            return _NO_PROGRESS_IMPURE if impure_next else _NO_PROGRESS

        last = accepted - 1
        predictor._global.restore(int(ctx.rolled[int(ctx.pos_incl[last])]))
        stats = predictor.stats
        stats.predictions += accepted
        stats.committed_packets += accepted
        stats.committed_branches += int(ctx.pos_incl[last])
        stats.committed_jumps += int(ctx.jumps_incl[last])
        for kernel in self.kernels:
            kernel.commit(ctx, accepted)
        records = (
            ctx.n_records if accepted == P else int(ctx.first_k[accepted])
        )
        return EngineResult(
            packets=accepted,
            records=records,
            instructions=int(ctx.instr_incl[last]),
            branches=int(ctx.branches_incl[last]),
            next_pc=int(ctx.next_fp[last]),
            impure_next=impure_next,
        )


# ----------------------------------------------------------------------
# CON009 stimulus support: a minimal lookup-only context so the contract
# harness can compare kernel.lookup against the scalar lookup slot by slot.
# ----------------------------------------------------------------------
def stimulus_context(
    fetch_pcs: List[int], ghists: List[int], width: int
) -> SegmentContext:
    """A lookup-phase context with no records (empty update grids)."""
    P = len(fetch_pcs)
    ctx = SegmentContext.__new__(SegmentContext)
    ctx.P, ctx.W = P, width
    ctx.scratch = {}
    ctx.fetch_pc = np.asarray(fetch_pcs, dtype=np.int64)
    ctx.aligned = ctx.fetch_pc - ctx.fetch_pc % width
    ctx.offset = ctx.fetch_pc % width
    ctx.lane_valid = np.arange(width)[None, :] >= ctx.offset[:, None]
    ctx.req_ghist = np.asarray(ghists, dtype=np.uint64)
    ctx.cond_grid = np.zeros((P, width), dtype=bool)
    ctx.rtaken_grid = np.zeros((P, width), dtype=bool)
    ctx.upd_cond = np.zeros((P, width), dtype=bool)
    ctx.has_cfi = np.zeros(P, dtype=bool)
    ctx.cfi_lane = np.full(P, -1, dtype=np.int64)
    return ctx


def state_from_vectors(vectors, ctx: SegmentContext) -> ColState:
    """Encode scalar predict_in vectors into absolute-lane grids."""
    state = ColState.fallthrough(ctx.P, ctx.W)
    for p, vector in enumerate(vectors):
        off = int(ctx.offset[p])
        for i, slot in enumerate(vector.slots):
            lane = off + i
            state.hit[p, lane] = slot.hit
            state.is_branch[p, lane] = slot.is_branch
            state.is_jump[p, lane] = slot.is_jump
            state.taken[p, lane] = slot.taken
            state.target[p, lane] = -1 if slot.target is None else slot.target
    return state


def state_matches_vector(
    state: ColState, p: int, offset: int, vector
) -> Tuple[bool, str]:
    """Compare one packet row of ``state`` against a scalar output vector."""
    for i, slot in enumerate(vector.slots):
        lane = offset + i
        got = (
            bool(state.hit[p, lane]),
            bool(state.is_branch[p, lane]),
            bool(state.is_jump[p, lane]),
            bool(state.taken[p, lane]),
            int(state.target[p, lane]),
        )
        want = (
            bool(slot.hit),
            bool(slot.is_branch),
            bool(slot.is_jump),
            bool(slot.taken),
            -1 if slot.target is None else int(slot.target),
        )
        if got != want:
            return False, (
                f"slot {i}: kernel {got} != scalar {want} "
                f"(hit/is_branch/is_jump/taken/target)"
            )
    return True, ""
