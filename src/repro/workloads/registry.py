"""Uniform workload naming and resolution (the ``WorkloadSource`` layer).

Entry points used to hard-code their own workload spellings: the CLI knew
the SPECint/Dhrystone/CoreMark names, the golden gate built micros
directly, and captured ``BranchTrace`` files could not be named at all.
This module gives every execution backend one resolution rule:

- a named preset (any SPECint kernel, ``dhrystone``, ``coremark``, or a
  micro kernel) builds its :class:`~repro.isa.program.Program` through the
  builder registry;
- a path ending in ``.npz`` is a stored branch trace (replayable, and —
  since traces do not carry instruction bytes — valid only for the
  ``replay`` backend);
- an in-memory :class:`Program` or an explicit :class:`WorkloadSource`
  passes through unchanged.

Replaying a live program needs its branch trace.  :data:`TRACE_STORE`
captures each (program content, instruction limit) once per process and
hands every later replay of the same pair the stored trace, so a search
that replays the same suite hundreds of times runs the interpreter once
per program.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.isa.program import Program
from repro.workloads.coremark import build_coremark
from repro.workloads.dhrystone import build_dhrystone
from repro.workloads.micro import MICRO_NAMES, build_micro
from repro.workloads.specint import SPECINT_NAMES, build as build_specint
from repro.workloads.traces import BranchTrace, capture_trace


#: Traces the in-process store keeps before evicting the least recently
#: used one.  An explore suite is five programs at one limit.
TRACE_STORE_SIZE = 32


class TraceStore:
    """Bounded in-process LRU of captured traces.

    Keyed by ``(program_digest(program), limit)``: the program's content,
    not its name, so a rebuilt or rescaled program never reuses a stale
    trace.  ``captures`` and ``hits`` count the interpreter runs and the
    runs saved.  Stored traces are shared by every caller, so their
    columns are read-only.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[str, int], BranchTrace]" = OrderedDict()
        self.captures = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, program: Program, max_instructions: Optional[int]) -> BranchTrace:
        """``program``'s trace cut at ``max_instructions``, captured on a miss.

        An uncapped replay is cut at the bound the ``trace`` backend applies
        when given none, so the two backends cover the same stream.
        """
        from repro.backends.base import DEFAULT_TRACE_INSTRUCTIONS
        from repro.eval.cache import program_digest

        limit = (
            max_instructions
            if max_instructions is not None
            else DEFAULT_TRACE_INSTRUCTIONS
        )
        key = (program_digest(program), limit)
        trace = self._entries.get(key)
        if trace is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return trace
        trace = capture_trace(program, max_instructions=limit)
        for column in vars(trace).values():
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
        self.captures += 1
        self._entries[key] = trace
        if len(self._entries) > TRACE_STORE_SIZE:
            self._entries.popitem(last=False)
        return trace

    def clear(self) -> None:
        """Drop every entry (the counters keep running)."""
        self._entries.clear()


#: The process's trace store (each worker process has its own).
TRACE_STORE = TraceStore()


@dataclass
class WorkloadSource:
    """One workload, in whichever form a backend can consume.

    A source carries a ``program``, a stored ``trace_path``, an in-memory
    ``trace``, or a program together with its trace.  Backends that
    execute instructions (``cycle``, ``trace``) require the program;
    ``replay`` takes the in-memory trace if there is one, else loads the
    ``.npz`` path, else fetches the program's trace from
    :data:`TRACE_STORE`.  An in-memory trace is used as given: it should
    have been captured at the run's instruction limit.
    """

    name: str
    program: Optional[Program] = None
    trace_path: Optional[Union[str, Path]] = None
    trace: Optional[BranchTrace] = None

    def require_program(self, backend: str) -> Program:
        if self.program is None:
            stored = self.trace_path if self.trace is None else "in memory"
            raise ValueError(
                f"workload {self.name!r} is a branch trace ({stored}); the "
                f"{backend!r} backend executes instructions and needs a "
                f"Program — use the replay backend for traces"
            )
        return self.program

    def branch_trace(self, max_instructions: Optional[int] = None) -> BranchTrace:
        """The workload as a :class:`BranchTrace` (given, loaded or stored)."""
        if self.trace is not None:
            return self.trace
        if self.trace_path is not None:
            return BranchTrace.load(self.trace_path)
        return TRACE_STORE.get(self.program, max_instructions)


#: Named builders, ``name -> builder(scale) -> Program``.
WORKLOAD_BUILDERS: Dict[str, Callable[[float], Program]] = {}


def register_workload(name: str, builder: Callable[[float], Program]) -> None:
    if name in WORKLOAD_BUILDERS:
        raise ValueError(f"workload {name!r} already registered")
    WORKLOAD_BUILDERS[name] = builder


for _name in SPECINT_NAMES:
    register_workload(_name, lambda scale, _n=_name: build_specint(_n, scale))
register_workload("dhrystone", build_dhrystone)
register_workload("coremark", build_coremark)
for _name in MICRO_NAMES:
    register_workload(_name, lambda scale, _n=_name: build_micro(_n, scale))


def workload_names() -> Tuple[str, ...]:
    """Every registered workload name, in registration order."""
    return tuple(WORKLOAD_BUILDERS)


def build_workload(name: str, scale: float = 0.5) -> Program:
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; have {sorted(WORKLOAD_BUILDERS)}"
        ) from None
    return builder(scale)


def resolve_workload(
    spec: Union[str, Path, Program, WorkloadSource],
    scale: float = 0.5,
) -> WorkloadSource:
    """Normalize any workload spelling to a :class:`WorkloadSource`."""
    if isinstance(spec, WorkloadSource):
        return spec
    if isinstance(spec, Program):
        return WorkloadSource(name=spec.name, program=spec)
    text = str(spec)
    if text.endswith(".npz"):
        return WorkloadSource(name=Path(text).stem, trace_path=text)
    return WorkloadSource(name=text, program=build_workload(text, scale))
