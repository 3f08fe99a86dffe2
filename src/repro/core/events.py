"""Prediction events of the COBRA interface (§III-E).

The interface defines five events a sub-component may observe:

- ``predict``: begin generating a prediction for a fetch PC (the
  :class:`PredictRequest` passed to ``lookup``).
- ``fire``: speculatively update local state for a prior predict PC.
- ``mispredict``: "fast" immediate update from a mispredicted branch.
- ``repair``: restore misspeculated local state for a given predict PC.
- ``update``: "slow" commit-time update from a committing branch.

``mispredict``, ``repair`` and ``update`` all carry the fetch PC and the
histories provided at predict time (so components can regenerate indices),
the resolved/misspeculated directions, and the component's own metadata
produced at predict time (§III-D/E).  :class:`UpdateBundle` is that common
payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The five interface events, in pipeline order.  Telemetry trace records
#: (:mod:`repro.telemetry.trace`) use these names, with commit-time
#: ``update`` closing each packet's lifetime.
EVENT_NAMES = ("predict", "fire", "mispredict", "repair", "update")


@dataclass(slots=True)
class PredictRequest:
    """Inputs available to a sub-component during prediction.

    ``ghist`` and ``lhist`` are provided only at the end of the first cycle
    (§III-B, Fig. 2); the composer enforces that single-cycle components do
    not consume them.  ``phist`` is the optional path history (§IV-B3),
    provided on the same timing.

    One request is built per fetch packet and handed to every component
    of the topology, so it is read-only: a ``lookup`` that assigns to it
    fails rule CON010.  (Not ``frozen``: a frozen dataclass's ``__init__``
    costs about five times as much, on every packet.)
    """

    fetch_pc: int
    width: int
    ghist: int = 0
    lhist: int = 0
    phist: int = 0


@dataclass(slots=True)
class UpdateBundle:
    """Common payload of the fire / mispredict / repair / update events.

    The composer builds one bundle per event and hands it to every
    component that handles the event, setting ``meta`` to each
    component's own metadata just before its handler runs.  Handlers
    must treat the bundle as read-only and must not keep it past the
    call (rule CON010).

    Attributes
    ----------
    fetch_pc, width, ghist, lhist:
        Exactly as provided at predict time.
    meta:
        The metadata integer this component produced at predict time
        (each component sees only its own metadata).
    br_mask:
        Per-slot flags: slot holds a conditional branch.  At ``fire`` time
        this reflects the *predicted* packet contents; at resolve time it
        reflects the decoded truth.
    taken_mask:
        Per-slot directions.  Speculative (predicted) at ``fire``/``repair``
        time, resolved at ``mispredict``/``update`` time.
    cfi_idx:
        Slot index of the control-flow instruction that (speculatively or
        actually) ended the packet, or None when the packet fell through.
    cfi_taken, cfi_target:
        Direction and target of that CFI.
    cfi_is_br, cfi_is_jal, cfi_is_jalr:
        Kind of that CFI.
    mispredicted:
        True on ``mispredict`` events and on ``update`` events for packets
        that were mispredicted.
    mispredict_idx:
        Slot index of the instruction that mispredicted (valid when
        ``mispredicted``); components use it to key allocations.
    """

    fetch_pc: int
    width: int
    ghist: int = 0
    lhist: int = 0
    phist: int = 0
    meta: int = 0
    br_mask: Tuple[bool, ...] = ()
    taken_mask: Tuple[bool, ...] = ()
    cfi_idx: Optional[int] = None
    cfi_taken: bool = False
    cfi_target: Optional[int] = None
    cfi_is_br: bool = False
    cfi_is_jal: bool = False
    cfi_is_jalr: bool = False
    mispredicted: bool = False
    mispredict_idx: Optional[int] = None
