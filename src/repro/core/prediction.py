"""Prediction datatypes for the COBRA interface.

The unit of prediction is the *fetch packet*: up to ``fetch_width``
instructions starting at a fetch PC.  A sub-component produces a
:class:`PredictionVector` — one :class:`SlotPrediction` per instruction slot
(§III-C, superscalar prediction) — and the composer merges vectors from all
sub-components into per-stage *final* predictions (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode


def packet_span(fetch_pc: int, fetch_width: int) -> int:
    """Number of instruction slots in the packet fetched at ``fetch_pc``.

    Fetch packets are aligned to ``fetch_width`` boundaries, so a fetch that
    starts mid-packet (after a redirect into the middle of a block) covers
    only the slots up to the next boundary.
    """
    return fetch_width - (fetch_pc % fetch_width)


@dataclass(frozen=True)
class PreDecodedSlot:
    """Instruction-kind information for one slot, known by Fetch-3.

    ``is_sfb`` marks short-forwards branches the decoder converts to
    predicated micro-ops (§VI-C): they are invisible to the predictor.
    """

    valid: bool = True
    is_cond_branch: bool = False
    is_jal: bool = False
    is_jalr: bool = False
    is_call: bool = False
    is_ret: bool = False
    direct_target: Optional[int] = None
    is_sfb: bool = False

    @property
    def is_cfi(self) -> bool:
        return (self.is_cond_branch and not self.is_sfb) or self.is_jal or self.is_jalr


#: Canonical slots for the two cases that dominate every instruction stream.
INVALID_SLOT = PreDecodedSlot(valid=False)
PLAIN_SLOT = PreDecodedSlot()


class PacketCache:
    """Memoized pre-decoded fetch packets, keyed by fetch PC.

    The single packet-assembly rule shared by every execution backend (the
    cycle-level frontend, the ``trace`` backend, and npz replay — see
    :mod:`repro.backends`): ``slot_fn`` maps a PC to its
    :class:`PreDecodedSlot`, and the cache builds aligned packets with
    :func:`packet_span`.  Valid because the instruction image is immutable
    during a run.
    """

    __slots__ = ("slot_fn", "fetch_width", "_packets")

    def __init__(self, slot_fn, fetch_width: int):
        self.slot_fn = slot_fn
        self.fetch_width = fetch_width
        self._packets = {}

    def packet(self, fetch_pc: int) -> Tuple[PreDecodedSlot, ...]:
        """The pre-decoded slots of the packet fetched at ``fetch_pc``."""
        slots = self._packets.get(fetch_pc)
        if slots is None:
            slot_fn = self.slot_fn
            slots = tuple(
                slot_fn(fetch_pc + i)
                for i in range(packet_span(fetch_pc, self.fetch_width))
            )
            self._packets[fetch_pc] = slots
        return slots


@lru_cache(maxsize=65536)
def predecode_slot(
    instr: Optional[Instruction], is_sfb: bool = False
) -> PreDecodedSlot:
    """Pre-decode one fetched instruction into its slot-kind summary.

    This is the single pre-decode rule shared by the cycle-level frontend
    (:class:`repro.frontend.core.Core`) and the ``trace`` backend
    (:mod:`repro.backends.trace`), so the two evaluation
    paths cannot diverge on instruction classification.  The function is
    pure (``Instruction`` is a frozen value type) and memoized: the same
    static instruction is re-decoded millions of times over a run, and the
    cache also interns the returned slots so identical instructions share
    one ``PreDecodedSlot`` instance.
    """
    if instr is None:
        return INVALID_SLOT
    if instr.is_cond_branch:
        return PreDecodedSlot(
            is_cond_branch=True, direct_target=instr.target, is_sfb=is_sfb
        )
    if instr.op is Opcode.JAL:
        return PreDecodedSlot(
            is_jal=True, is_call=instr.is_call, direct_target=instr.target
        )
    if instr.op is Opcode.JALR:
        return PreDecodedSlot(is_jalr=True, is_ret=instr.is_ret)
    return PLAIN_SLOT


class SlotPrediction:
    """Prediction for a single instruction slot within a fetch packet.

    Attributes
    ----------
    hit:
        Some sub-component formed a real prediction for this slot.  The
    composer uses this to implement structural overriding: in a topology
        where a fast component is ordered above a slower one (e.g.
        ``uBTB1 > PHT2``), the fast component cannot consume the slow
        component's output as ``predict_in``, so the composer muxes on
        ``hit`` instead (§IV-A).
    is_branch:
        The predictor believes this slot holds a conditional branch.
    is_jump:
        The predictor believes this slot holds an unconditional jump.
    taken:
        Predicted direction (meaningful when ``is_branch``; jumps are
        always taken).
    target:
        Predicted target PC, or None when no target-providing component
        (BTB/uBTB) hit for this slot.
    """

    __slots__ = ("hit", "is_branch", "is_jump", "taken", "target")

    def __init__(
        self,
        hit: bool = False,
        is_branch: bool = False,
        is_jump: bool = False,
        taken: bool = False,
        target: Optional[int] = None,
    ):
        self.hit = hit
        self.is_branch = is_branch
        self.is_jump = is_jump
        self.taken = taken
        self.target = target

    def copy(self) -> "SlotPrediction":
        # The hottest allocation in a sweep (every component lookup copies
        # its input vector): bypass __init__ and write the slots directly.
        clone = SlotPrediction.__new__(SlotPrediction)
        clone.hit = self.hit
        clone.is_branch = self.is_branch
        clone.is_jump = self.is_jump
        clone.taken = self.taken
        clone.target = self.target
        return clone

    @property
    def redirects(self) -> bool:
        """True when this slot, as predicted, ends the fetch packet."""
        return self.is_jump or (self.is_branch and self.taken)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SlotPrediction)
            and self.hit == other.hit
            and self.is_branch == other.is_branch
            and self.is_jump == other.is_jump
            and self.taken == other.taken
            and self.target == other.target
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "br" if self.is_branch else ("jmp" if self.is_jump else "-")
        direction = "T" if self.taken else "N"
        return f"<{kind} {direction} ->{self.target}>"


class PredictionVector:
    """A superscalar prediction: one slot per instruction in the packet."""

    __slots__ = ("fetch_pc", "slots")

    def __init__(self, fetch_pc: int, slots: List[SlotPrediction]):
        self.fetch_pc = fetch_pc
        self.slots = slots

    @classmethod
    def fallthrough(cls, fetch_pc: int, width: int) -> "PredictionVector":
        """The default prediction: no branches, fall through to next packet."""
        return cls(fetch_pc, [SlotPrediction() for _ in range(width)])

    @property
    def width(self) -> int:
        return len(self.slots)

    def copy(self) -> "PredictionVector":
        return PredictionVector(self.fetch_pc, [s.copy() for s in self.slots])

    def cfi_index(self) -> Optional[int]:
        """Index of the first slot predicted to redirect, or None."""
        for index, slot in enumerate(self.slots):
            if slot.redirects:
                return index
        return None

    def next_fetch_pc(self, fetch_width: int) -> int:
        """The fetch PC this prediction directs the frontend to next.

        A predicted-taken slot with a known target redirects there.  A
        predicted-taken slot *without* a target cannot redirect fetch (there
        is nowhere to go), so fetch falls through; the pre-decode stage or
        backend corrects it later.
        """
        cfi = self.cfi_index()
        if cfi is not None and self.slots[cfi].target is not None:
            return self.slots[cfi].target
        base = self.fetch_pc - (self.fetch_pc % fetch_width)
        return base + fetch_width

    def taken_mask(self) -> Tuple[bool, ...]:
        """Per-slot predicted directions for conditional-branch slots."""
        return tuple(s.is_branch and s.taken for s in self.slots)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PredictionVector)
            and self.fetch_pc == other.fetch_pc
            and self.slots == other.slots
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PredictionVector(pc={self.fetch_pc}, {self.slots})"


class StagedPrediction:
    """Per-stage final predictions for one fetch packet (§IV-A).

    ``per_stage[d - 1]`` is the final prediction the composed pipeline emits
    ``d`` cycles after the query.  The COBRA contract guarantees the
    prediction at stage ``d`` is "the same or more powerful" than at earlier
    stages; the composer constructs these by merging the topology subset with
    latency ``<= d``.
    """

    __slots__ = ("per_stage", "metas")

    def __init__(self, per_stage: List[PredictionVector], metas: dict):
        self.per_stage = per_stage
        self.metas = metas

    @property
    def depth(self) -> int:
        return len(self.per_stage)

    def stage(self, d: int) -> PredictionVector:
        """The final prediction at cycle ``d`` (1-indexed)."""
        if not 1 <= d <= self.depth:
            raise IndexError(f"stage {d} outside pipeline depth {self.depth}")
        return self.per_stage[d - 1]

    @property
    def final(self) -> PredictionVector:
        return self.per_stage[-1]
