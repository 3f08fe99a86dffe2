"""Traced-run harness: spans around calls into each layer's public functions.

The tracer never edits the program.  It replaces a public function with a
timing wrapper at every name a call site binds (a module attribute such as
``repro.workloads.registry.capture_trace``, or a method on its class), and
puts the originals back when the run ends.

Each wrapped call is a span (name, start, end, parent, run id).  The
tracer keeps, per phase and span name, the call count, the total time and
the self time (the span's duration minus the part its child spans cover).
Spans of hot per-packet or per-instruction functions are only aggregated;
the others are also kept whole, in memory, and written out when the run
ends.

Worker processes forked by the evaluation engine inherit the wrappers.
Each forked worker starts a fresh record at its first job and rewrites
its own ``worker-<pid>-<start ns>.json`` after every job; :meth:`Tracer.merge_workers` folds
those files into the parent's record.  Spawned workers (the service pool)
import the program afresh and are not traced; the service is measured by
its server-side spans and its ``GET /metrics`` counters.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Span names whose individual spans are not kept (aggregates only).
HOT = frozenset(
    {
        "core.predict",
        "core.resolve",
        "core.commit",
        "isa.step",
        "kernels.run",
        "core.build",
        "eval.cache_get",
        "eval.cache_put",
        "eval.key",
        "synthesis.area",
        "explore.operators",
        "workloads.trace_load",
    }
)


class Tracer:
    """Span recorder for one benchmark run (see the module docstring)."""

    def __init__(self, run_id: str, out_dir: Path):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.active = False
        self.phase = "setup"
        #: (phase, name) -> [calls, total seconds, self seconds]
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        #: (phase, name) -> count
        self.counters: Dict[Tuple[str, str], float] = {}
        #: Kept spans: (id, parent id, name, phase, start, end, pid).
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self._next_id = 1
        self._pid = os.getpid()
        #: Set in a forked worker: its pid and the file it reports to.
        self._forked: Optional[int] = None
        self._worker_file: Optional[Path] = None
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        if self.active:
            key = (self.phase, name)
            self.counters[key] = self.counters.get(key, 0) + value

    def _enter(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, 0.0, _clock()]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        span_id, name, child, start = frame
        self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        key = (self.phase, name)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if name not in HOT:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(
                (span_id, parent, name, self.phase, start, end, os.getpid())
            )

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.active or self._open.get(name):
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """``fn`` timed as span ``name``; ``after(tracer, args, result)``
        records counters from a call's arguments and result.  A call made
        while a span of the same name is open runs untimed, so nested
        entry points into one layer count once."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._open.get(name):
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable):
        """A coroutine function timed from call to completion.  Coroutines
        interleave on the event loop, so these spans take no part in the
        parent stack and their self time equals their duration."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            phase, start = tracer.phase, _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _clock()
                entry = tracer.stats.setdefault((phase, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer.spans.append(
                    (span_id, None, name, phase, start, end, os.getpid())
                )

        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch_function(self, module: Any, attr: str, name: str, after=None):
        """Wrap ``module.attr`` at every ``repro`` module that binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(
                        functools.partial(setattr, mod, key, original)
                    )

    def patch_method(
        self, cls: type, attr: str, name: str, after=None, is_async=False
    ):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(name, raw.__func__, after))
        elif is_async:
            replacement = self.wrap_async(name, raw)
        else:
            replacement = self.wrap(name, raw, after)
        setattr(cls, attr, replacement)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Forked workers
    # ------------------------------------------------------------------
    def worker_job_done(self) -> None:
        """Called after each job; a no-op in the benchmark process."""
        if os.getpid() == self._pid:
            return
        path = self._worker_file
        payload = {
            "stats": [[k[0], k[1], v] for k, v in self.stats.items()],
            "counters": [[k[0], k[1], v] for k, v in self.counters.items()],
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def worker_job_start(self) -> None:
        """Forget the state inherited from the parent at a worker's first
        job, so the worker file holds only the worker's own spans."""
        if os.getpid() in (self._pid, self._forked):
            return
        self._forked = os.getpid()
        # pid plus start time: a later worker may reuse the pid.
        self._worker_file = self.out_dir / f"worker-{os.getpid()}-{time.time_ns()}.json"
        self.stats, self.counters, self.spans = {}, {}, []
        self._stack, self._open = [], {}

    def merge_workers(self) -> None:
        for path in sorted(self.out_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            for phase, name, (calls, total, own) in payload["stats"]:
                entry = self.stats.setdefault((phase, name), [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for phase, name, value in payload["counters"]:
                key = (phase, name)
                self.counters[key] = self.counters.get(key, 0) + value
            self.spans.extend(tuple(span) for span in payload["spans"])
            path.unlink()

    # ------------------------------------------------------------------
    # Reading the record
    # ------------------------------------------------------------------
    def calls(self, name: str, phases=("timed",)) -> float:
        return sum(self.stats.get((p, name), (0, 0, 0))[0] for p in phases)

    def total(self, name: str, phases=("timed",)) -> float:
        return sum(self.stats.get((p, name), (0, 0, 0))[1] for p in phases)

    def self_time(self, name: str, phases=("timed",)) -> float:
        return sum(self.stats.get((p, name), (0, 0, 0))[2] for p in phases)

    def counter(self, name: str, phases=("timed",)) -> float:
        return sum(self.counters.get((p, name), 0) for p in phases)

    def write(self, path: Path) -> None:
        """Write every kept span, one JSON object a line."""
        with open(path, "w") as handle:
            for span_id, parent, name, phase, start, end, pid in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "phase": phase,
                            "start": start,
                            "end": end,
                            "pid": pid,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# The layer map: which public function is which span
# ----------------------------------------------------------------------
def _count_batch(tracer: Tracer, args, result) -> None:
    tracer.count("eval.cells", len(args[1]))


def _count_cache_get(tracer: Tracer, args, result) -> None:
    tracer.count("eval.cache_hits" if result is not None else "eval.cache_misses")


def _count_segment(tracer: Tracer, args, result) -> None:
    # SegmentEngine.run(self, cols, pc0, bi, k, budget) -> EngineResult
    tracer.count("kernels.offered_records", args[4])
    tracer.count("kernels.accepted_records", result.records)
    tracer.count("kernels.accepted_packets", result.packets)
    if not result.packets:
        tracer.count("kernels.empty_attempts")


def install(tracer: Tracer) -> None:
    """Put a span on every layer boundary the per-layer metrics read."""
    import repro.backends.packets as packets
    import repro.backends.replay as replay
    import repro.eval.parallel as parallel
    import repro.explore.search as search
    import repro.kernels.engine as engine
    import repro.presets as presets
    import repro.service.pool as pool
    import repro.service.protocol as protocol
    import repro.service.queue as queue
    import repro.workloads.generators as generators
    import repro.workloads.registry as registry
    import repro.workloads.traces as traces
    from repro.backends import CycleBackend, ReplayBackend, TraceBackend
    from repro.core.composer import ComposedPredictor
    from repro.eval.cache import ResultCache
    from repro.frontend.core import Core
    from repro.isa.interpreter import Interpreter
    from repro.synthesis.area import AreaModel

    # workloads
    tracer.patch_function(generators, "assemble_workload", "workloads.build")
    tracer.patch_function(registry, "build_workload", "workloads.build")
    tracer.patch_function(traces, "capture_trace", "workloads.capture")
    tracer.patch_method(traces.BranchTrace, "load", "workloads.trace_load")
    # isa, frontend
    tracer.patch_method(Interpreter, "step", "isa.step")
    tracer.patch_method(Core, "run", "frontend.core")
    # core
    tracer.patch_method(ComposedPredictor, "predict", "core.predict")
    tracer.patch_method(ComposedPredictor, "resolve_mispredict", "core.resolve")
    tracer.patch_method(ComposedPredictor, "commit_packet", "core.commit")
    tracer.patch_function(presets, "build", "core.build")
    tracer.patch_function(presets, "compose", "core.build")
    tracer.patch_method(protocol.TopologyFactory, "__call__", "core.build")
    # kernels
    tracer.patch_function(engine, "engine_for", "kernels.engine_for")
    tracer.patch_method(
        engine.SegmentEngine, "run", "kernels.run", after=_count_segment
    )
    # backends
    for backend in (CycleBackend, TraceBackend, ReplayBackend):
        tracer.patch_method(backend, "run", "backends.run")
    tracer.patch_function(replay, "drive_columns", "backends.walk")
    tracer.patch_function(replay, "_drive_columns_kernels", "backends.walk")
    tracer.patch_function(packets, "drive_stream", "backends.walk")
    # eval
    tracer.patch_method(
        parallel.ParallelRunner, "run", "eval.runner", after=_count_batch
    )
    tracer.patch_method(ResultCache, "get", "eval.cache_get", after=_count_cache_get)
    tracer.patch_method(ResultCache, "put", "eval.cache_put")
    tracer.patch_function(parallel, "job_cache_key", "eval.key")
    tracer.patch_function(parallel, "build_predictor", "core.build")

    execute = parallel._execute_job

    def job_boundary(job):
        tracer.worker_job_start()
        try:
            return execute(job)
        finally:
            tracer.worker_job_done()

    functools.update_wrapper(job_boundary, execute)
    for module in (parallel, queue):
        setattr(module, "_execute_job", job_boundary)
        tracer._undo.append(
            functools.partial(setattr, module, "_execute_job", execute)
        )
    # synthesis
    tracer.patch_method(AreaModel, "predictor_total", "synthesis.area")
    # explore
    tracer.patch_function(search, "evaluate_designs", "explore.evaluate")
    for operator in (
        "mutate",
        "crossover",
        "random_candidate",
        "seed_population",
        "seed_candidates",
        "dedup",
    ):
        tracer.patch_function(search, operator, "explore.operators")
    # service
    tracer.patch_method(queue.JobTable, "submit", "service.submit")
    tracer.patch_method(pool.WorkerPool, "run", "service.pool_run", is_async=True)


@contextmanager
def installed(tracer: Tracer):
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, by its BENCHMARK.json name.

    All of them count the timed phase only, except ``workloads.*``, which
    also count set-up (where programs are built and traces captured).
    ``extra`` carries the figures the workload itself supplies.
    """
    both = ("setup", "timed")
    t = tracer
    hits = t.counter("eval.cache_hits")
    misses = t.counter("eval.cache_misses")
    offered = t.counter("kernels.offered_records")
    accepted = t.counter("kernels.accepted_records")
    metrics = {
        "workloads.build_s": t.total("workloads.build", both),
        "workloads.capture_calls": t.calls("workloads.capture", both),
        "workloads.capture_s": t.total("workloads.capture", both),
        "workloads.trace_load_s": t.total("workloads.trace_load", both),
        "isa.interp_s": t.total("isa.step"),
        "frontend.core_self_s": t.self_time("frontend.core"),
        "core.predict_calls": t.calls("core.predict"),
        "core.predict_s": t.total("core.predict"),
        "core.resolve_calls": t.calls("core.resolve"),
        "core.resolve_s": t.total("core.resolve"),
        "core.commit_calls": t.calls("core.commit"),
        "core.commit_s": t.total("core.commit"),
        "core.build_calls": t.calls("core.build"),
        "core.build_s": t.total("core.build"),
        "kernels.engine_build_s": t.total("kernels.engine_for"),
        "kernels.attempts": t.calls("kernels.run"),
        "kernels.empty_attempts": t.counter("kernels.empty_attempts"),
        "kernels.offered_records": offered,
        "kernels.accepted_records": accepted,
        "kernels.accepted_packets": t.counter("kernels.accepted_packets"),
        "kernels.accept_ratio": _ratio(accepted, offered),
        "kernels.run_s": t.total("kernels.run"),
        "backends.run_calls": t.calls("backends.run"),
        "backends.run_s": t.total("backends.run"),
        "backends.walk_self_s": t.self_time("backends.walk"),
        "eval.cells": t.counter("eval.cells"),
        "eval.cache_hits": hits,
        "eval.cache_misses": misses,
        "eval.cache_hit_ratio": _ratio(hits, hits + misses),
        "eval.key_calls": t.calls("eval.key"),
        "eval.key_s": t.total("eval.key"),
        "eval.cache_get_s": t.total("eval.cache_get"),
        "eval.cache_put_s": t.total("eval.cache_put"),
        "eval.runner_self_s": t.self_time("eval.runner"),
        "synthesis.area_calls": t.calls("synthesis.area"),
        "synthesis.area_s": t.total("synthesis.area"),
        "explore.evaluate_calls": t.calls("explore.evaluate"),
        "explore.evaluate_s": t.total("explore.evaluate"),
        "explore.operator_s": t.total("explore.operators"),
        "explore.search_self_s": t.self_time("explore.search"),
        "service.submit_calls": t.calls("service.submit"),
        "service.submit_s": t.total("service.submit"),
        "service.pool_run_s": t.total("service.pool_run"),
    }
    metrics.update(extra)
    return metrics
