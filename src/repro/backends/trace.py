"""The ``trace`` backend: commit-order trace-driven simulation (§II-B).

Feeds the architectural path straight through the composed predictor, one
fetch packet per control-flow transfer: no wrong path, no speculative
history corruption, no update delay.  This is the software-simulator
methodology the paper argues demonstrates "substantial modelling error" —
kept as a first-class backend precisely so that error is measurable
against ``cycle`` (see ``benchmarks/bench_trace_vs_core.py``).

The instruction stream comes from the ISA interpreter and the packet walk
is :func:`repro.backends.packets.drive_stream`, which queries every packet.
This is the repository's one trace-driven front door over a live program
(``run_workload(predictor, program, backend="trace")``, capped at
:data:`~repro.backends.base.DEFAULT_TRACE_INSTRUCTIONS` by default), and
the independent reference the ``replay`` backend's columnar walker is
checked against.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import (
    DEFAULT_TRACE_INSTRUCTIONS,
    ExecutionBackend,
    RunLimits,
    attach_collector,
    counts_result,
    register_backend,
)
from repro.backends.packets import (
    drive_stream,
    interpreter_stream,
    program_packets,
)
from repro.core.composer import ComposedPredictor
from repro.eval.metrics import RunResult
from repro.frontend.config import CoreConfig
from repro.workloads.registry import WorkloadSource


class TraceBackend(ExecutionBackend):
    name = "trace"

    def run(
        self,
        predictor: ComposedPredictor,
        source: WorkloadSource,
        limits: RunLimits,
        core_config: Optional[CoreConfig] = None,
        system: Optional[str] = None,
        trace: Optional[object] = None,
    ) -> RunResult:
        program = source.require_program(self.name)
        limit = (
            limits.max_instructions
            if limits.max_instructions is not None
            else DEFAULT_TRACE_INSTRUCTIONS
        )
        collector = attach_collector(predictor, core_config, trace)
        try:
            counts = drive_stream(
                predictor,
                interpreter_stream(program, limit),
                program_packets(program, predictor.config.fetch_width),
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


register_backend(TraceBackend())
