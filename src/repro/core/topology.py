"""Topological models of predictor compositions (§IV-A).

A complete predictor pipeline is represented as an ordering of sub-components
where the ordering specifies which sub-component provides the final
prediction.  ``p_b > p_a`` means ``p_b`` wins any cycle where the final
prediction is ambiguous.  Arbitration schemes that *learn* to choose among
sub-predictors are expressed with bracketed child lists::

    TOURNEY3 > [GBIM2, LBIM2]

Three node kinds model this:

- :class:`Leaf` — a single sub-component.
- :class:`Override` — ``hi > lo``: ``hi`` receives ``lo``'s prediction as
  ``predict_in`` (when available at ``hi``'s response stage) and the
  composer muxes ``hi`` over ``lo`` on a per-slot hit basis.
- :class:`Arbitrate` — a selector receiving multiple ``predict_in`` vectors.

``evaluate`` returns the *staged* predictions of the sub-topology: the final
prediction the subset with latency ``<= d`` would emit at every stage ``d``.
This is the semantic core of the COBRA composer.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.events import PredictRequest
from repro.core.interface import InterfaceError, PredictorComponent
from repro.core.prediction import PredictionVector

#: Staged result: entry ``d - 1`` is the sub-topology's prediction at stage
#: ``d``, or None when no component with latency ``<= d`` exists in it.
StagedVectors = List[Optional[PredictionVector]]


def merge_by_hit(
    winner: PredictionVector, fallback: PredictionVector
) -> PredictionVector:
    """Per-slot mux: take the winner's slot where it hit, else the fallback's.

    This is the control-flow-redirection multiplexing the composer generates
    between ordered sub-components (§IV-B): the higher-priority prediction
    provides the final prediction in any cycle where it exists.

    The merged vector aliases the input slots instead of copying them.
    That is safe because slot predictions are never assigned to once
    built: a component ``lookup`` either returns its ``predict_in`` vector
    unchanged or builds a new vector with new slots for the lanes it
    predicts, and ``_apply_predecode`` builds its own vector too (CON002
    fails a lookup that writes to a slot it was handed).  This runs once
    per override edge per fetch packet, making it one of the hottest
    allocation sites in a sweep.
    """
    slots = [
        (w if w.hit else f)
        for w, f in zip(winner.slots, fallback.slots)
    ]
    return PredictionVector(winner.fetch_pc, slots)


def _notation(component: PredictorComponent) -> str:
    """Render one component in the paper's ``BASElatency`` notation.

    Uses the library base name recorded by the parser when available: a
    duplicate instance is named e.g. ``bim2``, and rendering the instance
    name would produce ``BIM22`` — which re-parses as ``BIM`` at latency 22.
    """
    base = getattr(component, "base_name", None) or component.name.upper()
    return f"{base}{component.latency}"


class TopologyNode(abc.ABC):
    """A node in the topological representation of a predictor design."""

    @abc.abstractmethod
    def components(self) -> Iterator[PredictorComponent]:
        """All sub-components in this sub-topology, in evaluation order."""

    @abc.abstractmethod
    def evaluate(
        self,
        req: PredictRequest,
        depth: int,
        metas: Dict[str, int],
        attribution: Optional[Dict[int, List[Optional[str]]]] = None,
    ) -> StagedVectors:
        """Compute staged predictions, recording each component's metadata.

        ``attribution``, when supplied (telemetry mode), is filled with a
        per-slot provider list for every produced vector, keyed by
        ``id(vector)``: entry ``i`` names the component that supplied slot
        ``i``'s prediction, or None for the fall-through default.  Provider
        identity follows the same muxing the vectors themselves do — a
        pass-through slot keeps its upstream provider — so the map is exact
        for any vector the composer hands to the frontend.  The ids are
        only valid while the vectors are alive; callers must consume the
        map before releasing the staged vectors.
        """

    @property
    def max_latency(self) -> int:
        return max(c.latency for c in self.components())

    def describe(self) -> str:
        """Render the topology back into the paper's notation."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@lru_cache(maxsize=65536)
def _shared_fallthrough(fetch_pc: int, width: int) -> PredictionVector:
    """A canonical fall-through vector for default predict_in wiring.

    Safe to share across queries: vectors and slots are never mutated on
    the prediction path (see :func:`merge_by_hit`), so these defaults stay
    read-only.
    """
    return PredictionVector.fallthrough(fetch_pc, width)


def _first_available(
    staged: StagedVectors, stage: int, req: PredictRequest
) -> PredictionVector:
    """The sub-topology's prediction at ``stage``, or the fall-through default.

    A component may use any ``predict_in(d)`` with ``d <= n`` (§III-F); we
    provide the most recent one available at its response stage.
    """
    for d in range(stage, 0, -1):
        vector = staged[d - 1]
        if vector is not None:
            return vector
    return _shared_fallthrough(req.fetch_pc, req.width)


class Leaf(TopologyNode):
    """A single sub-component with no inputs from other sub-components."""

    def __init__(self, component: PredictorComponent):
        if component.n_inputs != 1:
            raise InterfaceError(
                f"{component.name}: arbitration components (n_inputs="
                f"{component.n_inputs}) cannot be topology leaves"
            )
        self.component = component

    def components(self) -> Iterator[PredictorComponent]:
        yield self.component

    def evaluate(self, req, depth, metas, attribution=None):
        default = _shared_fallthrough(req.fetch_pc, req.width)
        out, meta = self.component.lookup(req, [default])
        metas[self.component.name] = self.component.check_meta(meta)
        staged: StagedVectors = [None] * depth
        for d in range(self.component.latency, depth + 1):
            staged[d - 1] = out
        if attribution is not None:
            name = self.component.name
            attribution[id(out)] = [
                name if slot.hit else None for slot in out.slots
            ]
        return staged

    def describe(self) -> str:
        return _notation(self.component)


class Override(TopologyNode):
    """``hi > lo``: ``hi`` provides the final prediction where it hits."""

    def __init__(self, hi: PredictorComponent, lo: TopologyNode):
        if hi.n_inputs != 1:
            raise InterfaceError(
                f"{hi.name}: a component taking {hi.n_inputs} predict_in "
                f"inputs must head an Arbitrate node, not an Override"
            )
        self.hi = hi
        self.lo = lo

    def components(self) -> Iterator[PredictorComponent]:
        yield from self.lo.components()
        yield self.hi

    def evaluate(self, req, depth, metas, attribution=None):
        staged = self.lo.evaluate(req, depth, metas, attribution)
        predict_in = _first_available(staged, self.hi.latency, req)
        out, meta = self.hi.lookup(req, [predict_in])
        metas[self.hi.name] = self.hi.check_meta(meta)
        out_providers = None
        if attribution is not None:
            # Slots hi left untouched (equal to its predict_in) keep their
            # upstream provider; slots it changed are hi's.
            in_providers = attribution.get(id(predict_in))
            name = self.hi.name
            out_providers = [
                (in_providers[i] if in_providers else None)
                if out.slots[i] == predict_in.slots[i]
                else name
                for i in range(len(out.slots))
            ]
            attribution[id(out)] = out_providers
        result: StagedVectors = list(staged)
        # Consecutive stages usually share one vector object (a component's
        # output is replicated across every stage >= its latency), so the
        # merge is computed once per distinct vector, not once per stage.
        prev_below = prev_merged = None
        for d in range(self.hi.latency, depth + 1):
            below = staged[d - 1]
            if below is None:
                result[d - 1] = out
            elif below is prev_below:
                result[d - 1] = prev_merged
            else:
                # hi wins per slot where it (or anything it passed through
                # from its own predict_in) hit; otherwise the slower
                # sub-topology's more recent prediction stands.
                prev_below = below
                prev_merged = merge_by_hit(out, below)
                if attribution is not None:
                    below_providers = attribution.get(id(below))
                    attribution[id(prev_merged)] = [
                        out_providers[i]
                        if out.slots[i].hit
                        else (below_providers[i] if below_providers else None)
                        for i in range(len(out.slots))
                    ]
                result[d - 1] = prev_merged
        return result

    def describe(self) -> str:
        return f"{_notation(self.hi)} > {self.lo.describe()}"


class Arbitrate(TopologyNode):
    """A selector choosing among two or more sub-topologies (§IV-A1).

    Before the selector responds, the first-listed child provides the
    provisional final prediction; this tie-break is a composer convention
    (the paper leaves the pre-arbitration prediction unspecified).
    """

    def __init__(self, selector: PredictorComponent, children: List[TopologyNode]):
        if len(children) < 2:
            raise InterfaceError(
                f"{selector.name}: arbitration requires >= 2 children, "
                f"got {len(children)}"
            )
        if selector.n_inputs != len(children):
            raise InterfaceError(
                f"{selector.name}: selector takes {selector.n_inputs} "
                f"predict_in inputs but the topology supplies {len(children)}"
            )
        self.selector = selector
        self.children = children

    def components(self) -> Iterator[PredictorComponent]:
        for child in self.children:
            yield from child.components()
        yield self.selector

    def evaluate(self, req, depth, metas, attribution=None):
        child_staged = [
            child.evaluate(req, depth, metas, attribution)
            for child in self.children
        ]
        predict_ins = [
            _first_available(staged, self.selector.latency, req)
            for staged in child_staged
        ]
        out, meta = self.selector.lookup(req, predict_ins)
        metas[self.selector.name] = self.selector.check_meta(meta)
        if attribution is not None:
            # A slot equal to one of the arbitrated inputs is that child's
            # prediction (the selector chose it); anything else is the
            # selector's own.
            providers: List[Optional[str]] = []
            name = self.selector.name
            for i, slot in enumerate(out.slots):
                provider: Optional[str] = name
                for vector in predict_ins:
                    if slot == vector.slots[i]:
                        child_providers = attribution.get(id(vector))
                        provider = child_providers[i] if child_providers else None
                        break
                providers.append(provider)
            attribution[id(out)] = providers
        result: StagedVectors = list(child_staged[0])
        for d in range(self.selector.latency, depth + 1):
            result[d - 1] = out
        return result

    def describe(self) -> str:
        sel = _notation(self.selector)
        inner = ", ".join(
            f"({c.describe()})" if isinstance(c, (Override, Arbitrate)) else c.describe()
            for c in self.children
        )
        return f"{sel} > [{inner}]"


def validate_topology(root: TopologyNode) -> Tuple[PredictorComponent, ...]:
    """Check a topology for contract violations; return its components.

    Enforces unique component names and the Fig. 2 history-timing rule
    (already enforced per-component, but re-checked here so hand-built
    component objects cannot slip through).
    """
    seen: Dict[str, PredictorComponent] = {}
    for component in root.components():
        if component.name in seen and seen[component.name] is not component:
            raise InterfaceError(
                f"duplicate component name {component.name!r} in topology"
            )
        if component.name in seen:
            raise InterfaceError(
                f"component {component.name!r} appears twice in the topology"
            )
        if component.latency < 2 and (
            component.uses_global_history or component.uses_local_history
        ):
            raise InterfaceError(
                f"{component.name}: latency-1 components cannot use histories"
            )
        seen[component.name] = component
    return tuple(seen.values())
