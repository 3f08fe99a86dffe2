"""The four benchmark workloads, driven through the public API.

Each workload function takes a :class:`Run` and fills in its outcome: the
operations attempted and failed, the end-to-end metrics, and, in a traced
run, the per-layer figures the workload itself supplies.  See README.md
for why each workload exists and which layers it exercises.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import harness
import inputs

import repro
from repro import presets
from repro.eval.cache import ResultCache
from repro.eval.metrics import harmonic_mean
from repro.eval.parallel import EvalJob, job_cache_key
from repro.eval.runner import run_suite
from repro.frontend.config import CoreConfig
from repro.workloads import traces

clock = time.perf_counter

REPLAY_SCALE = 0.3
CYCLE_SCALE = 0.05
#: Instructions per cycle-core cell: enough for every fetch to go through
#: the frontend and composer, few enough for several repetitions a run.
CYCLE_MAX_INSTRUCTIONS = 800
SERVICE_SCALE = 0.5
SETUP_REPS = 3
#: Cached reruns of a sweep cell after each of its uncached runs.
WARM_HITS = 3
#: Fewest warm reruns of each explore search.  A rerun is about 0.1 s and
#: jitters by a third within one process, so its time is the lower
#: quartile of many.
WARM_MIN_RERUNS = 15


class _Record:
    __slots__ = ("number", "name", "pair", "fields")

    def __init__(self, number, name, pair, fields):
        self.number, self.name, self.pair, self.fields = number, name, pair, fields


def _calibration_kernel() -> int:
    """A fixed piece of standard-library work, about 3 ms on the reference
    machine: object construction, dict and list traffic, JSON and hashing,
    the kind of work the simulator and its cache path do."""
    records = [_Record(i, str(i), (i, 3 * i), {"k": i}) for i in range(800)]
    by_name = {r.name: r for r in records}
    total = sum(by_name[r.name].pair[1] & 7 for r in records)
    text = json.dumps([[r.number, r.name, list(r.pair), r.fields] for r in records])
    decoded = json.loads(text)
    return total + len(hashlib.sha256(repr(decoded[:200]).encode()).hexdigest())


#: The calibration kernel's 10th-percentile time on the reference machine
#: (2-vCPU Intel Xeon, Python 3.11).  Host times are reported scaled by
#: CALIBRATION_REFERENCE_S / (this run's 10th-percentile kernel time).
CALIBRATION_REFERENCE_S = 0.003


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    traced: bool
    work: Path
    reference: Optional[Dict[str, Any]]
    tracer: Optional[harness.Tracer] = None
    #: When the measured phase began (after set-up).
    started: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layer_extra: Dict[str, float] = field(default_factory=dict)
    #: What ``--write-reference`` stores for this workload.
    observed: Dict[str, Any] = field(default_factory=dict)
    #: Calibration kernel times, sampled between operations all run long.
    calibration: List[float] = field(default_factory=list)
    #: The metrics timed in the benchmark process, which the calibration
    #: describes; work in other processes is reported unscaled.
    scaled: Tuple[str, ...] = ("sim_instr_per_s", "cold_op_ms", "warm_op_ms")

    def calibrate(self, samples: int) -> None:
        for _ in range(samples):
            start = clock()
            _calibration_kernel()
            self.calibration.append(clock() - start)

    def speed_factor(self) -> float:
        """Reference kernel time / this run's kernel time: below 1 while
        the host runs slower than the reference machine did."""
        kernel = statistics.quantiles(self.calibration, n=10)[0]
        return CALIBRATION_REFERENCE_S / kernel

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def expected(self) -> Optional[Dict[str, Any]]:
        if self.reference is None:
            return None
        return self.reference.get(self.workload)

    def tracing(self, phase: str, when: bool = True) -> "_Tracing":
        """Trace a step as ``phase``: only in a traced run, and only
        ``when`` the step is one the traced run measures."""
        return _Tracing(self.tracer if self.traced and when else None, phase)


class _Tracing:
    def __init__(self, tracer: Optional[harness.Tracer], phase: str):
        self.tracer, self.phase = tracer, phase

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.phase = self.phase
            self.tracer.active = True
        return self.tracer

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = False


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fresh_import(modules: Tuple[str, ...]) -> None:
    """Start a new interpreter that imports ``modules`` and exits: the
    start-up a user's process pays before any preparation of its own."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import {', '.join(modules)}"
    subprocess.run([sys.executable, "-c", code], check=True)


def timed_setup(
    run: Run, modules: Tuple[str, ...], prepare: Callable[[Path], Any]
) -> Any:
    """Set-up is a fresh interpreter importing ``modules`` plus
    ``prepare``, which builds the workload's inputs into a new directory.
    It runs SETUP_REPS times; ``setup_s`` is the median and the last
    repetition's inputs are kept.  A traced run traces only that one."""
    run.calibrate(10)
    times = []
    state = None
    for rep in range(SETUP_REPS):
        target = run.work / f"setup{rep}"
        target.mkdir(parents=True)
        last = rep == SETUP_REPS - 1
        with run.tracing("setup", when=last):
            start = clock()
            fresh_import(modules)
            state = prepare(target)
            times.append(clock() - start)
        if not last:
            shutil.rmtree(target)
    run.metrics["setup_s"] = statistics.median(times)
    run.calibrate(10)
    return state


# ----------------------------------------------------------------------
# replay_micro and cycle_specint: serial preset x program sweeps
# ----------------------------------------------------------------------
REPLAY_FIELDS = ("instructions", "branches", "branch_mispredicts")
CYCLE_FIELDS = REPLAY_FIELDS + ("cycles", "flushes")


def _counts(result, fields) -> List[int]:
    return [getattr(result, name) for name in fields]


def _program_counts(program, limit: Optional[int]) -> Tuple[int, int]:
    """Instructions and conditional branches of ``program``'s own trace,
    whole or cut at ``limit`` instructions."""
    trace = (
        traces.capture_trace(program)
        if limit is None
        else traces.capture_trace(program, max_instructions=limit)
    )
    return trace.instruction_count, int((trace.types == traces.TYPE_COND).sum())


def _sweep(
    run: Run,
    backend: str,
    workloads: Dict[str, Any],
    programs: Dict[str, Any],
    fields: Tuple[str, ...],
    cap: Optional[int] = None,
) -> None:
    """Cells round robin over the matrix, each turn one uncached run of the
    cell and WARM_HITS cached reruns of it.  A cell is one
    ``run_suite([preset], {name: workload})`` call; its cold and warm times
    are the fastest of their repetitions over the whole run.  ``cap``
    bounds each cell's instructions."""
    matrix = [(p, n) for p in inputs.PRESETS for n in workloads]
    first: Dict[Tuple[str, str], Any] = {}
    cold: Dict[Tuple[str, str], List[float]] = {cell: [] for cell in matrix}
    warm: Dict[Tuple[str, str], List[float]] = {cell: [] for cell in matrix}
    cache = ResultCache(run.work / "cache")

    def timed(cell: Tuple[str, str], use_cache: bool):
        preset, name = cell
        run.attempted += 1
        start = clock()
        result = run_suite(
            [preset],
            {name: workloads[name]},
            max_instructions=cap,
            backend=backend,
            cache=cache if use_cache else None,
        )
        return result[preset][name], clock() - start

    def turn(cell: Tuple[str, str], warm_hits: int) -> Optional[float]:
        preset, name = cell
        try:
            result, elapsed = timed(cell, use_cache=False)
            if cell not in first:
                first[cell] = result
                job = _job(preset, name, workloads[name], backend, cap)
                cache.put(job_cache_key(job), result)
            for _ in range(warm_hits):
                hits = cache.hits
                cached, warm_elapsed = timed(cell, use_cache=True)
                warm[cell].append(warm_elapsed)
                run.check(cache.hits == hits + 1, f"warm {preset}/{name} missed")
                run.check(
                    _counts(cached, fields) == _counts(result, fields),
                    f"warm {preset}/{name}: cached counts differ from cold",
                )
        except Exception as error:  # counted, reported, and the run ends
            run.fail(f"{backend} {preset}/{name}: {error!r}")
            return None
        run.check(
            _counts(result, fields) == _counts(first[cell], fields),
            f"{preset}/{name}: counts changed between rounds",
        )
        cold[cell].append(elapsed)
        run.calibrate(2)
        return elapsed

    if run.traced:
        # One untraced and one traced round of identical uncached work.
        plain = [turn(cell, WARM_HITS) for cell in matrix]
        with run.tracing("timed"):
            traced = [turn(cell, 0) for cell in matrix]
        if None in plain or None in traced:
            return
        run.layer_extra["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    else:
        deadline = run.started + run.seconds
        done = 0
        while done < len(matrix) or clock() < deadline:
            if turn(matrix[done % len(matrix)], WARM_HITS) is None:
                return
            done += 1

    cells: Dict[str, Dict[str, List[int]]] = {}
    for (preset, name), result in first.items():
        cells.setdefault(preset, {})[name] = _counts(result, fields)
    run.observed["cells"] = cells
    # A capped cell must reach the cap and commit what the program's own
    # trace holds up to where it stopped; an uncapped one, the whole trace.
    whole = {name: _program_counts(programs[name], None) for name in programs}
    expected = run.expected()
    for (preset, name), result in first.items():
        counts = cells[preset][name]
        if cap is None:
            oracle = whole[name]
        else:
            oracle = _program_counts(programs[name], counts[0])
            run.check(
                counts[0] >= min(cap, whole[name][0]),
                f"{preset}/{name}: stopped at {counts[0]} instructions",
            )
        run.check(
            tuple(counts[:2]) == oracle,
            f"{preset}/{name}: ran {counts[:2]} instructions/branches, "
            f"the program has {list(oracle)}",
        )
        if expected is not None:
            run.check(
                counts == expected["cells"][preset][name],
                f"{preset}/{name}: {counts} != reference "
                f"{expected['cells'][preset][name]}",
            )

    fastest = sum(min(t) for t in cold.values())
    run.metrics["sim_instr_per_s"] = (
        sum(r.instructions for r in first.values()) / fastest
    )
    run.metrics["cold_op_ms"] = 1000.0 * fastest / len(matrix)
    run.metrics["warm_op_ms"] = 1000.0 * statistics.mean(
        min(t) for t in warm.values()
    )
    run.metrics["mpki_mean"] = statistics.mean(r.mpki for r in first.values())
    if backend == "cycle":
        run.layer_extra["frontend.ipc_hmean"] = harmonic_mean(
            [r.ipc for r in first.values()]
        )


def _job(
    preset: str, name: str, workload: Any, backend: str, cap: Optional[int]
) -> EvalJob:
    """The job ``run_suite`` builds for one cell, for its cache key."""
    is_path = isinstance(workload, str)
    return EvalJob(
        system=preset,
        spec=preset,
        workload=name,
        program=None if is_path else workload,
        core_config=CoreConfig(),
        max_instructions=cap,
        backend=backend,
        trace_path=workload if is_path else None,
    )


def _probe_engine(run: Run, backend: str, workload: Any, expect_attempts: bool):
    """Workload-validity assertions on the layer the workload targets."""
    from repro.kernels.engine import engine_for

    for preset in inputs.PRESETS:
        has_engine = engine_for(presets.build(preset)) is not None
        run.check(
            has_engine == (preset != "tourney"),
            f"engine_for({preset}) is {'set' if has_engine else 'None'}",
        )
    if run.traced:
        tracer = run.tracer
    else:
        tracer = harness.Tracer("probe", run.work)
        with harness.installed(tracer):
            tracer.phase, tracer.active = "timed", True
            run_suite(["tage_l"], {"probe": workload}, backend=backend)
            tracer.active = False
    attempts = tracer.calls("kernels.run")
    if expect_attempts:
        run.check(attempts > 0, f"{backend}: the segment engine never ran")
        run.check(
            tracer.calls("isa.step") == 0,
            f"{backend}: the interpreter ran in the timed phase",
        )
    else:
        run.check(attempts == 0, f"{backend}: the segment engine ran")


def replay_micro(run: Run) -> None:
    def prepare(target: Path) -> Dict[str, str]:
        paths = {}
        for name, program in inputs.micro_programs(run.seed, REPLAY_SCALE).items():
            path = target / f"{name}.npz"
            traces.capture_trace(program).save(path)
            paths[name] = str(path)
        return paths

    paths = timed_setup(run, ("repro.eval.runner", "repro.kernels.engine"), prepare)
    programs = inputs.micro_programs(run.seed, REPLAY_SCALE)
    run.started = clock()
    _sweep(run, "replay", paths, programs, REPLAY_FIELDS)
    _probe_engine(run, "replay", paths["biased"], expect_attempts=True)


def cycle_specint(run: Run) -> None:
    programs = timed_setup(
        run,
        ("repro.eval.runner",),
        lambda target: inputs.specint_programs(run.seed, CYCLE_SCALE),
    )
    run.started = clock()
    _sweep(run, "cycle", programs, programs, CYCLE_FIELDS, cap=CYCLE_MAX_INSTRUCTIONS)
    _probe_engine(run, "cycle", programs["x264"], expect_attempts=False)


# ----------------------------------------------------------------------
# explore_search
# ----------------------------------------------------------------------
def _front(result) -> List[Dict[str, Any]]:
    from repro.explore import result_payload

    return json.loads(json.dumps(result_payload(result)["front"], sort_keys=True))


def _cached_instructions(cache_dir: Path) -> int:
    cache = ResultCache(cache_dir)
    total = 0
    for path in sorted(cache_dir.glob("*.json")):
        result = cache.get(path.stem)
        if result is not None:
            total += result.instructions
    return total


def explore_search(run: Run) -> None:
    import repro.explore as explore_pkg
    from repro.explore import ExploreConfig
    from repro.workloads.registry import resolve_workload

    seeds = inputs.explore_seeds(run.seed)
    if run.traced:
        # The bench seed's search three times: a warm-up, then traced, then
        # untraced for the overhead comparison.
        seeds = seeds[:1] * 3

    def prepare(target: Path) -> List[Path]:
        # What a user does before a search: pick a cache directory per
        # search and materialise the suite the search evaluates.
        defaults = ExploreConfig()
        for name in defaults.workloads:
            resolve_workload(name, defaults.scale)
        dirs = [target / f"cache{i}" for i in range(len(seeds))]
        for path in dirs:
            path.mkdir()
        return dirs

    cache_dirs = timed_setup(run, ("repro.explore",), prepare)
    # Cold searches run in the pool's worker processes; warm reruns, all
    # cache hits, run here.
    run.scaled = ("warm_op_ms",)
    run.started = clock()

    def search(index: int, traced: bool):
        run.attempted += 1
        config = ExploreConfig(seed=seeds[index], jobs=2, cache=cache_dirs[index])
        with run.tracing("timed", when=traced) as tracer:
            start = clock()
            if tracer is None:
                result = explore_pkg.explore(config)
            else:
                with tracer.span("explore.search"):
                    result = explore_pkg.explore(config)
                tracer.merge_workers()
        return result, clock() - start

    cold_times: List[float] = []
    fronts: List[List[Dict[str, Any]]] = []
    mpkis: List[float] = []
    instructions = 0
    warm: Dict[int, List[float]] = {i: [] for i in range(len(seeds))}

    def rerun(index: int) -> bool:
        try:
            result, elapsed = search(index, traced=index == 1)
        except Exception as error:
            run.fail(f"explore warm rerun: {error!r}")
            return False
        warm[index].append(elapsed)
        run.calibrate(2)
        run.check(
            result.provenance["cold_evaluations"] == 0,
            f"explore seed {seeds[index]}: warm rerun evaluated "
            f"{result.provenance['cold_evaluations']} cells",
        )
        run.check(
            _front(result) == fronts[index],
            f"explore seed {seeds[index]}: warm front differs from cold",
        )
        return True

    # Each cold search is followed by two warm reruns of every search so far,
    # so each search's warm times are spread over the run.
    for index, (seed, cache_dir) in enumerate(zip(seeds, cache_dirs)):
        try:
            result, elapsed = search(index, traced=index == 1)
        except Exception as error:
            run.fail(f"explore seed {seed}: {error!r}")
            return
        cold = result.provenance["cold_evaluations"]
        run.check(cold > 0, f"explore seed {seed}: cold run evaluated nothing")
        if run.traced and index == 1:
            run.layer_extra["explore.cold_evaluations"] = cold
        cold_times.append(elapsed)
        run.calibrate(20)
        fronts.append(_front(result))
        mpkis.append(statistics.mean(p.mean_mpki for p in result.front))
        instructions += _cached_instructions(cache_dir)
        for earlier in list(range(index + 1)) * 2:
            if not rerun(earlier):
                return
    if run.traced:
        run.layer_extra["trace.overhead_frac"] = cold_times[1] / cold_times[2] - 1

    run.observed["fronts"] = {str(s): f for s, f in zip(seeds, fronts)}
    expected = run.expected()
    if expected is not None:
        for seed, front in zip(seeds, fronts):
            run.check(
                front == expected["fronts"][str(seed)],
                f"explore seed {seed}: front differs from the reference",
            )

    deadline = run.started + run.seconds
    turn = 0
    while min(len(w) for w in warm.values()) < WARM_MIN_RERUNS or (
        not run.traced and clock() < deadline
    ):
        if not rerun(turn % len(seeds)):
            return
        turn += 1
    measured = range(len(seeds)) if not run.traced else [2]
    run.metrics["cold_op_ms"] = 1000.0 * statistics.mean(
        cold_times[i] for i in measured
    )
    run.metrics["warm_op_ms"] = 1000.0 * statistics.mean(
        statistics.quantiles(warm[i], n=4)[0] for i in measured
    )
    run.metrics["sim_instr_per_s"] = instructions / sum(cold_times)
    run.metrics["mpki_mean"] = statistics.mean(mpkis)


# ----------------------------------------------------------------------
# service_rt
# ----------------------------------------------------------------------
SERVICE_CLIENTS = 2
SERVICE_COLD_BATCHES = 6
#: Warm passes over the specs, unless the run's time ends first; the
#: first SERVICE_WARM_BETWEEN follow each cold batch.
SERVICE_WARM_ROUNDS = 100
SERVICE_WARM_BETWEEN = 10
#: Warm passes per side of the traced run's overhead comparison.
SERVICE_OVERHEAD_ROUNDS = 5


async def _start_service(target: Path):
    from repro.service import EvalService, ServiceConfig
    from repro.service.client import ServiceClient

    port_file = target / "port"
    service = EvalService(
        ServiceConfig(
            port=0,
            workers=2,
            cache_dir=str(target / "cache"),
            port_file=str(port_file),
            quiet=True,
        )
    )
    task = asyncio.create_task(service.serve())
    while not port_file.exists():
        if task.done():
            task.result()
            raise RuntimeError("service exited before listening")
        await asyncio.sleep(0.005)
    port = int(port_file.read_text())
    return service, task, ServiceClient(port=port, timeout=120.0)


async def _stop_service(service, task) -> None:
    import multiprocessing

    service.request_shutdown()
    await task
    # The pool shuts down without waiting; reap its workers here.
    deadline = clock() + 30.0
    while multiprocessing.active_children() and clock() < deadline:
        await asyncio.sleep(0.01)


async def _service_main(run: Run) -> None:
    from repro.service.client import ServiceClientError

    specs = inputs.service_specs(run.seed, SERVICE_SCALE)
    # Cold jobs run in the worker processes, and a warm round trip crosses
    # the event loop the server and both clients share; measured, the
    # calibration did not track either, so nothing here is scaled.
    run.scaled = ()

    # Set-up: a server with two spawned workers and a fresh cache.
    run.calibrate(10)
    times = []
    for rep in range(SETUP_REPS):
        target = run.work / f"setup{rep}"
        target.mkdir(parents=True)
        last = rep == SETUP_REPS - 1
        with run.tracing("setup", when=last):
            start = clock()
            fresh_import(("repro.service",))
            service, task, client = await _start_service(target)
            times.append(clock() - start)
        if not last:
            await _stop_service(service, task)
    run.metrics["setup_s"] = statistics.median(times)
    run.calibrate(10)
    run.started = clock()

    async def round_trip(spec) -> Tuple[Optional[Dict[str, Any]], float]:
        run.attempted += 1
        start = clock()
        try:
            view = await client.submit(spec)
            if view["state"] not in ("done", "failed"):
                view = await client.wait_job(view["id"], timeout=120.0)
        except ServiceClientError as error:
            run.fail(f"{spec['predictor']}/{spec['workload']}: HTTP {error.status}")
            return None, clock() - start
        elapsed = clock() - start
        if view["state"] != "done":
            run.fail(f"{spec['predictor']}/{spec['workload']}: {view.get('error')}")
            return None, elapsed
        return view, elapsed

    async def closed_loop(work: Iterator[Tuple[int, Dict[str, Any]]], until=None):
        """SERVICE_CLIENTS clients sharing ``work``; each sends its next
        request only when its previous one has completed."""
        outcomes: List[Tuple[int, Optional[Dict[str, Any]], float]] = []

        async def client_loop():
            for index, spec in work:
                view, elapsed = await round_trip(spec)
                outcomes.append((index, view, elapsed))
                if until is not None and clock() >= until:
                    return

        await asyncio.gather(*(client_loop() for _ in range(SERVICE_CLIENTS)))
        return outcomes

    def fastest(outcomes) -> List[float]:
        """Per spec, its fastest round trip."""
        best: Dict[int, float] = {}
        for index, _, elapsed in outcomes:
            spec = index % len(specs)
            best[spec] = min(elapsed, best.get(spec, elapsed))
        return [best[i] for i in sorted(best)]

    # Every spec is submitted once per cold batch; a batch adds its number
    # to the instruction limit, so each submission is novel but costs the
    # same as the others of its spec.  Cold request ``batch * n + i`` is
    # spec ``i`` of that batch.
    def cold_work(batch: int):
        for index, spec in enumerate(specs):
            limit = spec["max_instructions"] + batch
            yield batch * len(specs) + index, {**spec, "max_instructions": limit}

    def warm_work(rounds: int):
        for _ in range(rounds):
            yield from enumerate(specs)

    cold_results: Dict[int, Dict[str, Any]] = {}

    def warm_check(outcomes):
        for index, view, _ in outcomes:
            if view is None:
                continue
            run.check(view["cache_hit"], f"warm job {index} missed the cache")
            run.check(
                view["result"] == cold_results[index],
                f"warm job {index}: result differs from cold",
            )
        return outcomes

    try:
        # Cold batches, each followed by warm rounds over the specs, so the
        # fastest cold and warm round trips are drawn from the whole run.
        cold: List[Tuple[int, Optional[Dict[str, Any]], float]] = []
        warm: List[Tuple[int, Optional[Dict[str, Any]], float]] = []
        for batch in range(SERVICE_COLD_BATCHES):
            with run.tracing("timed"):
                outcomes = await closed_loop(cold_work(batch))
            cold += outcomes
            for index, view, _ in outcomes:
                if view is None:
                    continue
                run.check(not view["cache_hit"], f"cold job {index} hit the cache")
                if batch == 0:
                    cold_results[index] = view["result"]
            if len(cold_results) != len(specs):
                return
            run.calibrate(10)
            if not run.traced:
                warm += warm_check(await closed_loop(warm_work(SERVICE_WARM_BETWEEN)))
                run.calibrate(10)

        if run.traced:
            rounds = SERVICE_OVERHEAD_ROUNDS
            plain = warm_check(await closed_loop(warm_work(rounds)))
            with run.tracing("timed"):
                traced = warm_check(await closed_loop(warm_work(rounds)))
            run.layer_extra["trace.overhead_frac"] = (
                sum(e for _, _, e in traced) / sum(e for _, _, e in plain) - 1
            )
            warm = plain
        else:
            rest = SERVICE_WARM_ROUNDS - SERVICE_COLD_BATCHES * SERVICE_WARM_BETWEEN
            warm += warm_check(
                await closed_loop(warm_work(rest), until=run.started + run.seconds)
            )
        counters = await client.metrics()
        run.calibrate(10)
    finally:
        await _stop_service(service, task)

    run.check(counters["jobs_shed"] == 0, f"{counters['jobs_shed']} jobs shed")
    run.check(counters["jobs_failed"] == 0, f"{counters['jobs_failed']} jobs failed")
    novel = len(specs) * SERVICE_COLD_BATCHES
    run.check(
        counters["executions"] == novel,
        f"{counters['executions']} executions for {novel} novel specs",
    )
    if run.traced:
        for name in ("executions", "cache_hits", "dedup_coalesced",
                     "worker_restarts", "jobs_failed"):
            run.layer_extra[f"service.{name}"] = counters[name]
        run.layer_extra["service.shed"] = counters["jobs_shed"]

    results = [cold_results[i] for i in range(len(specs))]
    run.observed["results"] = results
    expected = run.expected()
    if expected is not None:
        run.check(
            results == expected["results"],
            "service results differ from the reference",
        )
    cold_fastest = fastest(cold)
    run.metrics["cold_op_ms"] = 1000.0 * statistics.mean(cold_fastest)
    run.metrics["warm_op_ms"] = 1000.0 * statistics.mean(fastest(warm))
    run.metrics["sim_instr_per_s"] = (
        sum(r["instructions"] for r in results) / sum(cold_fastest)
    )
    run.metrics["mpki_mean"] = statistics.mean(r["mpki"] for r in results)


def calibrated(run: Run) -> Dict[str, float]:
    """The run's metrics, with those in ``run.scaled`` put on the reference
    machine's scale (see README.md)."""
    factor = run.speed_factor()
    metrics = dict(run.metrics)
    for name in run.scaled:
        if name in metrics:
            rate = name.endswith("_per_s")
            metrics[name] = metrics[name] / factor if rate else metrics[name] * factor
    return metrics


def service_rt(run: Run) -> None:
    asyncio.run(_service_main(run))


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "replay_micro": replay_micro,
    "cycle_specint": cycle_specint,
    "explore_search": explore_search,
    "service_rt": service_rt,
}
