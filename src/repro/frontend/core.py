"""Cycle-level model of the host core (fetch unit + simplified backend).

The fetch unit reproduces Fig. 6's structure: the COBRA-generated predictor
pipeline is queried at Fetch-0; staged predictions redirect fetch as they
arrive (1-cycle uBTB redirects at Fetch-1, the BTB at Fetch-2, backing
predictors at Fetch-3); pre-decode corrects bogus predictions and supplies
direct targets; the RAS (kept from the host core, §IV-C) predicts returns;
accepted packets enter the fetch buffer and the history file.

The backend dispatches up to 4 instructions per cycle into a 128-entry ROB,
computes completion times with a dependency-driven timing model (idealized
issue bandwidth), resolves branches in order, and commits up to 4 per
cycle.  Branch resolution compares the frontend's *followed* path against
the architectural oracle; a mismatch flushes younger state, repairs the
predictor through the composer, and redirects fetch.

Instruction-kind semantics on the wrong path come from real instruction
memory (fetch reads the same program image the oracle executes), so
wrong-path fetches pollute speculative predictor state exactly as they
would in hardware.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.components.ras import RasSnapshot, ReturnAddressStack
from repro.core.composer import ComposedPredictor, PreDecodedSlot, PredictResult
from repro.core.prediction import PacketCache, packet_span, predecode_slot
from repro.frontend.caches import DataCacheModel, InstructionCacheModel
from repro.frontend.config import CoreConfig
from repro.frontend.oracle import OracleStream
from repro.isa.instructions import Instruction, NUM_REGS, Opcode
from repro.isa.program import Program

_KIND_CORRECT = 0
_KIND_WRONG = 1
_KIND_PREDICATED = 2


@dataclass
class CoreStats:
    """Measurements collected over one run (the FireSim out-of-band
    profiler analogue)."""

    cycles: int = 0
    committed_instructions: int = 0
    committed_predicated: int = 0
    committed_branches: int = 0
    committed_jumps: int = 0
    branch_mispredicts: int = 0
    target_mispredicts: int = 0
    flushes: int = 0
    fetch_packets: int = 0
    fetch_bubble_cycles: int = 0
    decode_starved_cycles: int = 0
    stage_redirects: Dict[int, int] = field(default_factory=dict)
    sfb_converted: int = 0
    repair_walk_cycles: int = 0
    icache_stall_cycles: int = 0
    #: Direction mispredicts per static branch PC (site profiling).
    mispredicts_by_pc: Dict[int, int] = field(default_factory=dict)
    #: Committed executions per static branch PC.
    executions_by_pc: Dict[int, int] = field(default_factory=dict)
    #: Telemetry summary payload (``CoreConfig.telemetry``); None when the
    #: collector is not attached.  JSON-canonical, see
    #: :meth:`repro.telemetry.TelemetryCollector.summary`.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ipc(self) -> float:
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        """Conditional-branch direction mispredicts per kilo-instruction."""
        if not self.committed_instructions:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.committed_instructions

    @property
    def total_mpki(self) -> float:
        """All control mispredicts (direction + indirect target) per KI."""
        if not self.committed_instructions:
            return 0.0
        misses = self.branch_mispredicts + self.target_mispredicts
        return 1000.0 * misses / self.committed_instructions

    @property
    def branch_accuracy(self) -> float:
        if not self.committed_branches:
            return 1.0
        return 1.0 - self.branch_mispredicts / self.committed_branches


@dataclass(slots=True)
class _RobEntry:
    seq: int
    pc: int
    instr: Instruction
    ftq_id: int
    slot_idx: int
    kind: int
    record: Optional[object]
    oracle_index: Optional[int]
    followed_next_pc: int
    complete_cycle: int
    needs_resolution: bool
    ends_packet: bool
    is_halt: bool
    resolved: bool = False
    flushed: bool = False


@dataclass(slots=True)
class _DispatchSlot:
    pc: int
    instr: Instruction
    slot_idx: int
    followed_next_pc: int
    ends_packet: bool


class _BufferedPacket:
    __slots__ = ("ftq_id", "fetch_pc", "slots", "pos")

    def __init__(self, ftq_id: int, fetch_pc: int, slots: List[_DispatchSlot]):
        self.ftq_id = ftq_id
        self.fetch_pc = fetch_pc
        self.slots = slots
        self.pos = 0


class _InFlightFetch:
    __slots__ = ("result", "age", "followed_next_pc", "stage_next")

    def __init__(self, result: PredictResult, stage_next: Tuple[int, ...]):
        self.result = result
        self.age = 0
        #: ``stage_next[d - 1]`` is the fetch PC the stage-``d`` prediction
        #: directs the frontend to.  Precomputed once at issue so the staged
        #: redirect check does not re-scan the prediction vector every cycle
        #: the bundle sits in the fetch pipeline.
        self.stage_next = stage_next
        if len(stage_next) == 1:
            # A single-stage pipeline has no later stage to override the
            # fetched path, and its stage-1 answer IS the final one — which
            # pre-decode has already corrected within the same fetch cycle.
            # Follow the corrected PC, or bogus raw predictions (e.g. a BTB
            # hit on a non-CFI slot) would steer fetch down a path the ROB
            # never learns about.
            self.followed_next_pc = result.next_fetch_pc
        else:
            self.followed_next_pc = stage_next[0]


_NOP = Instruction(Opcode.NOP)


class Core:
    """A program + a composed predictor + the core model = one experiment."""

    def __init__(
        self,
        program: Program,
        predictor: ComposedPredictor,
        config: Optional[CoreConfig] = None,
        max_oracle_instructions: int = 50_000_000,
        trace: Optional[object] = None,
    ):
        self.config = config or CoreConfig()
        if predictor.config.fetch_width != self.config.fetch_width:
            raise ValueError(
                "predictor and core disagree on fetch width: "
                f"{predictor.config.fetch_width} vs {self.config.fetch_width}"
            )
        self.program = program
        self.predictor = predictor
        self.oracle = OracleStream(program, max_oracle_instructions)
        self.dcache = DataCacheModel(self.config.cache)
        ic = self.config.icache
        self.icache = (
            InstructionCacheModel(
                ic.n_sets, ic.n_ways, ic.line_words, ic.miss_penalty,
                ic.prefetch_next_line,
            )
            if ic.enabled
            else None
        )
        self.ras = ReturnAddressStack(self.config.ras_depth)
        self.stats = CoreStats()
        self.telemetry = None
        if self.config.telemetry or trace is not None:
            from repro.telemetry import TelemetryCollector

            self.telemetry = TelemetryCollector(trace=trace)
            self.predictor.attach_telemetry(self.telemetry)

        self._cycle = 0
        self._fetch_pc = program.entry
        self._fetch_stall_until = 0
        self._in_flight: Deque[_InFlightFetch] = deque()
        self._fetch_buffer: Deque[_BufferedPacket] = deque()
        self._rob: Deque[_RobEntry] = deque()
        self._resolve_queue: Deque[_RobEntry] = deque()
        self._reg_ready = [0] * NUM_REGS
        self._next_correct_pc = program.entry
        self._oracle_pos = 0
        self._pred_skip_target: Optional[int] = None
        self._seq = 0
        self._running = True
        self._last_commit_cycle = 0
        # Per-ftq RAS bookkeeping: snapshot before the packet's RAS action,
        # and the slot at which the action happened (None if none).
        self._ras_snaps: Dict[int, Tuple[RasSnapshot, Optional[int]]] = {}
        self._sfb_pcs = (
            self._find_sfb_branches() if self.config.sfb_enabled else frozenset()
        )
        # Remaining instructions to commit per in-flight packet.
        self._packet_remaining: Dict[int, int] = {}
        # Per-PC fetch memoization (the program is immutable during a run):
        # pre-decoded slots, whole pre-decoded packets (the PacketCache
        # shared with the trace-driven backends), and dispatch-slot lists
        # keyed by (fetch_pc, length, followed next PC).
        self._memo = self.config.fetch_memoization
        self._predecode_cache: Dict[int, PreDecodedSlot] = {}
        self._packets = PacketCache(self._predecode_slot, self.config.fetch_width)
        self._dispatch_cache: Dict[Tuple[int, int, int], List[_DispatchSlot]] = {}

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def _find_sfb_branches(self) -> frozenset:
        """PCs of branches eligible for SFB predication (§VI-C).

        A short forwards branch skips a small run of simple instructions:
        the shadow must contain no control flow and no HALT, so the skipped
        instructions can execute as predicated no-ops.
        """
        eligible = set()
        for pc, instr in enumerate(self.program.instructions):
            distance = instr.forward_distance(pc)
            if distance is None or distance > self.config.sfb_max_distance:
                continue
            shadow = self.program.instructions[pc + 1 : pc + distance]
            if any(s.is_control_flow or s.op is Opcode.HALT for s in shadow):
                continue
            eligible.add(pc)
        return frozenset(eligible)

    def _predecode_slot(self, pc: int) -> PreDecodedSlot:
        if not self._memo:
            # Benchmarking mode: bypass every memoization layer, including
            # the shared ``lru_cache``, so the unoptimized path is measurable.
            return predecode_slot.__wrapped__(
                self.program.fetch(pc), pc in self._sfb_pcs
            )
        cached = self._predecode_cache.get(pc)
        if cached is not None:
            return cached
        slot = predecode_slot(self.program.fetch(pc), pc in self._sfb_pcs)
        self._predecode_cache[pc] = slot
        return slot


    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        self._cycle += 1
        self.stats.cycles = self._cycle
        self._commit()
        if not self._running:
            return
        self._resolve()
        self._dispatch()
        self._advance_fetch()

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        deadlock_limit: int = 20_000,
    ) -> CoreStats:
        """Simulate until the program halts or a cap is reached."""
        while self._running:
            self.step()
            if max_instructions is not None and (
                self.stats.committed_instructions >= max_instructions
            ):
                break
            if max_cycles is not None and self._cycle >= max_cycles:
                break
            if self._cycle - self._last_commit_cycle > deadlock_limit:
                raise RuntimeError(
                    f"no commit for {deadlock_limit} cycles at cycle "
                    f"{self._cycle} (pc={self._fetch_pc}, rob={len(self._rob)}, "
                    f"buffer={len(self._fetch_buffer)}, "
                    f"in_flight={len(self._in_flight)})"
                )
        self.stats.repair_walk_cycles = self.predictor.repair_stats.walk_cycles
        if self.telemetry is not None:
            self.stats.telemetry = self.telemetry.summary()
        return self.stats

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        committed = 0
        while committed < self.config.commit_width and self._rob:
            entry = self._rob[0]
            if entry.complete_cycle > self._cycle:
                break
            if entry.needs_resolution and not entry.resolved:
                break
            self._rob.popleft()
            committed += 1
            self._last_commit_cycle = self._cycle
            if entry.kind == _KIND_CORRECT:
                self.stats.committed_instructions += 1
                if entry.instr.is_cond_branch and entry.pc not in self._sfb_pcs:
                    self.stats.committed_branches += 1
                    self.stats.executions_by_pc[entry.pc] = (
                        self.stats.executions_by_pc.get(entry.pc, 0) + 1
                    )
                elif entry.instr.is_cond_branch:
                    self.stats.sfb_converted += 1
                elif entry.instr.is_jump:
                    self.stats.committed_jumps += 1
                self.oracle.trim(entry.oracle_index)
            elif entry.kind == _KIND_PREDICATED:
                self.stats.committed_predicated += 1
            else:  # pragma: no cover - protected by flush logic
                raise AssertionError("wrong-path instruction reached commit")
            if entry.ends_packet:
                self.predictor.commit_packet(entry.ftq_id)
                self._ras_snaps.pop(entry.ftq_id, None)
                self._packet_remaining.pop(entry.ftq_id, None)
            if entry.is_halt:
                self._running = False
                return

    # ------------------------------------------------------------------
    # Resolve
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        while self._resolve_queue:
            entry = self._resolve_queue[0]
            if entry.flushed:
                self._resolve_queue.popleft()
                continue
            if entry.complete_cycle + self.config.branch_resolve_delay > self._cycle:
                break
            self._resolve_queue.popleft()
            entry.resolved = True
            if entry.kind != _KIND_CORRECT:
                continue  # wrong-path resolutions never steer the machine
            record = entry.record
            if record.next_pc == entry.followed_next_pc:
                continue
            self._handle_mispredict(entry)
            break  # at most one flush per cycle

    def _handle_mispredict(self, entry: _RobEntry) -> None:
        record = entry.record
        if entry.instr.is_cond_branch:
            actual_taken = record.taken
            actual_target = record.next_pc if record.taken else None
            is_direction = True
            self.stats.branch_mispredicts += 1
            self.stats.mispredicts_by_pc[entry.pc] = (
                self.stats.mispredicts_by_pc.get(entry.pc, 0) + 1
            )
        else:
            actual_taken = True
            actual_target = record.next_pc
            is_direction = False
            self.stats.target_mispredicts += 1
        response = self.predictor.resolve_mispredict(
            entry.ftq_id,
            entry.slot_idx,
            actual_taken,
            actual_target,
            is_direction_mispredict=is_direction,
        )
        self.stats.flushes += 1

        # Flush younger ROB entries.
        while self._rob and self._rob[-1].seq > entry.seq:
            victim = self._rob.pop()
            victim.flushed = True
        entry.ends_packet = True
        self._packet_remaining.pop(entry.ftq_id, None)

        # Flush frontend state at or after the mispredicting packet.
        while self._fetch_buffer and self._fetch_buffer[-1].ftq_id >= entry.ftq_id:
            self._fetch_buffer.pop()
        self._in_flight.clear()

        self._restore_ras(entry)

        # Rewind the oracle window and the correct-path cursor.
        self._oracle_pos = entry.oracle_index + 1
        self._next_correct_pc = record.next_pc
        self._pred_skip_target = None

        # Redirect fetch (replay mode adds history-repair bubbles, §VI-B).
        self._fetch_pc = record.next_pc
        self._fetch_stall_until = (
            self._cycle
            + self.config.redirect_penalty
            + response.extra_redirect_bubbles
        )

    def _restore_ras(self, entry: _RobEntry) -> None:
        """Undo RAS pushes/pops younger than the mispredict point."""
        own = self._ras_snaps.get(entry.ftq_id)
        if own is not None:
            snapshot, action_slot = own
            if action_slot is not None and action_slot > entry.slot_idx:
                self.ras.restore(snapshot)
                self._drop_ras_snaps(entry.ftq_id, inclusive=False)
                self._ras_snaps[entry.ftq_id] = (snapshot, None)
                return
        oldest: Optional[Tuple[RasSnapshot, Optional[int]]] = None
        oldest_id = None
        for ftq_id, (snapshot, action_slot) in self._ras_snaps.items():
            if ftq_id > entry.ftq_id and action_slot is not None:
                if oldest_id is None or ftq_id < oldest_id:
                    oldest_id = ftq_id
                    oldest = (snapshot, action_slot)
        if oldest is not None:
            self.ras.restore(oldest[0])
        self._drop_ras_snaps(entry.ftq_id, inclusive=False)

    def _drop_ras_snaps(self, ftq_id: int, inclusive: bool) -> None:
        limit = ftq_id - 1 if inclusive else ftq_id
        for key in [k for k in self._ras_snaps if k > limit]:
            del self._ras_snaps[key]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        dispatched = 0
        while (
            dispatched < self.config.decode_width
            and self._fetch_buffer
            and len(self._rob) < self.config.rob_entries
        ):
            packet = self._fetch_buffer[0]
            slot = packet.slots[packet.pos]
            self._dispatch_slot(packet, slot)
            dispatched += 1
            packet.pos += 1
            if packet.pos >= len(packet.slots):
                self._fetch_buffer.popleft()
        if dispatched == 0 and not self._fetch_buffer:
            self.stats.decode_starved_cycles += 1

    def _dispatch_slot(self, packet: _BufferedPacket, slot: _DispatchSlot) -> None:
        instr = slot.instr
        kind = _KIND_WRONG
        record = None
        oracle_index = None

        if self._pred_skip_target is not None:
            if slot.pc == self._pred_skip_target:
                self._pred_skip_target = None
            else:
                kind = _KIND_PREDICATED
        if kind != _KIND_PREDICATED and slot.pc == self._next_correct_pc:
            rec = self.oracle.get(self._oracle_pos)
            if rec is not None and rec.pc == slot.pc:
                kind = _KIND_CORRECT
                record = rec
                oracle_index = self._oracle_pos
                self._oracle_pos += 1
                self._next_correct_pc = rec.next_pc
                if (
                    self.config.sfb_enabled
                    and slot.pc in self._sfb_pcs
                    and rec.taken
                ):
                    # Predicate the shadow: dispatch it as no-ops instead of
                    # redirecting (§VI-C).
                    self._pred_skip_target = rec.next_pc

        complete = self._timing_model(instr, record)
        needs_resolution = kind == _KIND_CORRECT and (
            (instr.is_cond_branch and slot.pc not in self._sfb_pcs)
            or instr.op is Opcode.JALR
        )
        entry = _RobEntry(
            seq=self._seq,
            pc=slot.pc,
            instr=instr,
            ftq_id=packet.ftq_id,
            slot_idx=slot.slot_idx,
            kind=kind,
            record=record,
            oracle_index=oracle_index,
            followed_next_pc=slot.followed_next_pc,
            complete_cycle=complete,
            needs_resolution=needs_resolution,
            ends_packet=slot.ends_packet,
            is_halt=(instr.op is Opcode.HALT and kind == _KIND_CORRECT),
        )
        self._seq += 1
        self._rob.append(entry)
        if needs_resolution:
            self._resolve_queue.append(entry)

    def _timing_model(self, instr: Instruction, record) -> int:
        ready = self._cycle + self.config.issue_latency
        for reg in (instr.rs1, instr.rs2):
            if reg:
                ready = max(ready, self._reg_ready[reg])
        latency = instr.latency
        if record is not None and record.mem_addr is not None:
            if instr.op is Opcode.LD:
                latency += self.dcache.load_penalty(record.mem_addr)
            else:
                self.dcache.store_touch(record.mem_addr)
        complete = ready + latency
        if instr.rd:
            self._reg_ready[instr.rd] = complete
        return complete

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------
    def _advance_fetch(self) -> None:
        width = self.config.fetch_width
        redirected = False

        # Advance in-flight bundles one stage, oldest first, never letting a
        # bundle overtake its predecessor (a blocked final stage backs the
        # pipeline up).
        prev_age = self.predictor.depth + 1
        for bundle in self._in_flight:
            bundle.age = min(bundle.age + 1, prev_age - 1, self.predictor.depth)
            prev_age = bundle.age

        # Staged redirect checks: a later, more powerful prediction
        # overrides the path fetch followed (§IV-B, Alpha-21264 style).
        for position, bundle in enumerate(self._in_flight):
            if bundle.age < 2:
                continue
            stage = bundle.age
            if stage >= self.predictor.depth:
                new_next = bundle.result.next_fetch_pc
            else:
                new_next = bundle.stage_next[stage - 1]
            if new_next != bundle.followed_next_pc:
                bundle.followed_next_pc = new_next
                self._internal_redirect(position, bundle, new_next, stage)
                redirected = True
                break

        # Retire the oldest bundle into the fetch buffer.
        if (
            self._in_flight
            and self._in_flight[0].age >= self.predictor.depth
            and len(self._fetch_buffer) < self.config.fetch_buffer_packets
        ):
            bundle = self._in_flight.popleft()
            self._fetch_buffer.append(self._make_packet(bundle))

        # Issue a new fetch.
        if redirected or self._cycle < self._fetch_stall_until:
            self.stats.fetch_bubble_cycles += 1
            return
        if self._in_flight and self._in_flight[-1].age < 1:
            self.stats.fetch_bubble_cycles += 1
            return
        if len(self._in_flight) >= self.predictor.depth + 1:
            self.stats.fetch_bubble_cycles += 1
            return
        if not self.predictor.can_predict:
            self.stats.fetch_bubble_cycles += 1
            return
        if self.icache is not None:
            penalty = self.icache.fetch_penalty(self._fetch_pc)
            if penalty > 0:
                # Miss: the line is being refilled; fetch retries after the
                # penalty (the tag is already allocated, so the retry hits).
                self._fetch_stall_until = self._cycle + penalty
                self.stats.icache_stall_cycles += penalty
                self.stats.fetch_bubble_cycles += 1
                return
        self._issue_fetch()

    def _internal_redirect(
        self, position: int, bundle: _InFlightFetch, new_next: int, stage: int
    ) -> None:
        """A later-stage prediction overrides the fetched path."""
        while len(self._in_flight) > position + 1:
            self._in_flight.pop()
        walk = self.predictor.squash_after(bundle.result.ftq_id)
        self.stats.repair_walk_cycles += walk
        # Undo RAS actions of the squashed younger packets.
        oldest_id = None
        oldest_snap = None
        for ftq_id, (snapshot, action_slot) in self._ras_snaps.items():
            if ftq_id > bundle.result.ftq_id and action_slot is not None:
                if oldest_id is None or ftq_id < oldest_id:
                    oldest_id = ftq_id
                    oldest_snap = snapshot
        if oldest_snap is not None:
            self.ras.restore(oldest_snap)
        self._drop_ras_snaps(bundle.result.ftq_id, inclusive=False)
        self._fetch_pc = new_next
        self.stats.stage_redirects[stage] = (
            self.stats.stage_redirects.get(stage, 0) + 1
        )

    def _issue_fetch(self) -> None:
        fetch_pc = self._fetch_pc
        if self._memo:
            slots = self._packets.packet(fetch_pc)
        else:
            width = packet_span(fetch_pc, self.config.fetch_width)
            slots = [self._predecode_slot(fetch_pc + i) for i in range(width)]
        ras_top = self.ras.peek()
        snapshot = self.ras.snapshot()
        result = self.predictor.predict(fetch_pc, slots, ras_top)
        action_slot: Optional[int] = None
        cfi = result.cut
        if cfi is not None and cfi < result.fetched_len:
            info = slots[cfi]
            if result.final.slots[cfi].redirects:
                if info.is_call:
                    self.ras.push(fetch_pc + cfi + 1)
                    action_slot = cfi
                elif info.is_ret:
                    self.ras.pop()
                    action_slot = cfi
        self._ras_snaps[result.ftq_id] = (snapshot, action_slot)
        fetch_width = self.config.fetch_width
        stage_next = tuple(
            vector.next_fetch_pc(fetch_width) for vector in result.staged
        )
        bundle = _InFlightFetch(result, stage_next)
        self._in_flight.append(bundle)
        self._fetch_pc = bundle.followed_next_pc
        self.stats.fetch_packets += 1

    def _make_packet(self, bundle: _InFlightFetch) -> _BufferedPacket:
        result = bundle.result
        count = result.fetched_len
        self._packet_remaining[result.ftq_id] = count
        key = (result.fetch_pc, count, result.next_fetch_pc)
        slots = self._dispatch_cache.get(key) if self._memo else None
        if slots is None:
            slots = []
            for i in range(count):
                pc = result.fetch_pc + i
                instr = self.program.fetch(pc) or _NOP
                last = i == count - 1
                followed = result.next_fetch_pc if last else pc + 1
                slots.append(
                    _DispatchSlot(
                        pc=pc,
                        instr=instr,
                        slot_idx=i,
                        followed_next_pc=followed,
                        ends_packet=last,
                    )
                )
            if self._memo:
                # Dispatch slots are immutable once built (per-packet dispatch
                # progress lives on _BufferedPacket), so identical packets can
                # share one slot list.
                self._dispatch_cache[key] = slots
        return _BufferedPacket(result.ftq_id, result.fetch_pc, slots)
