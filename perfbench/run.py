#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay_micro --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, in turn

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it carries the run's provenance.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reap_children(grace: float = 30.0) -> None:
    """End every process the run started and wait for each.

    Pool workers are multiprocessing children: give them ``grace`` seconds
    to exit, then terminate, then kill.  A spawn pool also starts
    multiprocessing's resource tracker, which outlives the run unless it is
    stopped and waited for here.
    """
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + grace
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    for signal_name in ("terminate", "kill"):
        children = multiprocessing.active_children()
        for child in children:
            getattr(child, signal_name)()
        for child in children:
            child.join(5.0)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_one(args, spec: dict) -> int:
    import harness
    import inputs
    import workloads

    writing = args.write_reference
    if writing and (args.seed != inputs.DEFAULT_SEED or args.trace):
        print("--write-reference needs the default seed and --trace 0",
              file=sys.stderr)
        return 2
    reference = None
    if args.seed == inputs.DEFAULT_SEED and not writing:
        reference = json.loads(REFERENCE.read_text())

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = harness.Tracer(f"{args.workload}:{args.seed}", work) if args.trace else None
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        work=work,
        reference=reference,
        tracer=tracer,
    )
    try:
        if tracer is not None:
            with harness.installed(tracer):
                workloads.WORKLOADS[args.workload](run)
        else:
            workloads.WORKLOADS[args.workload](run)
    except Exception as error:  # the run's boundary: report, count, go on
        traceback.print_exc()
        run.fail(f"{args.workload}: {error!r}")
    finally:
        reap_children()
        if tracer is not None:
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        shutil.rmtree(work, ignore_errors=True)
    run.metrics["peak_rss_mib"] = workloads.peak_rss_mib()
    run.calibrate(10)

    if args.trace:
        names = spec["per_layer"]
        values = {m["name"]: 0.0 for m in names}
        values.update(harness.layer_metrics(tracer, run.layer_extra))
    else:
        names = spec["end_to_end"]
        values = workloads.calibrated(run)
    missing = [m["name"] for m in names if m["name"] not in values]
    for name in missing:
        run.fail(f"metric {name} was not measured")
    for message in run.errors:
        print(f"FAILED: {message}", file=sys.stderr)

    attempted = max(run.attempted, run.failed, 1)
    failed = min(run.failed, attempted)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in names
        if m["name"] in values
    }
    for name, metric in metrics.items():
        host = run.metrics.get(name)
        note = "" if args.trace or host == metric["value"] else f"  (host {host:.6g})"
        print(f"{args.workload:15s} {name:28s} {metric['value']:>16.6g} "
              f"{metric['unit']}{note}")
    print(f"{args.workload:15s} {'failed_frac':28s} {failed / attempted:>16.6g} "
          f"({failed}/{attempted})")
    record = {"provenance": {**provenance(args), "speed_factor": run.speed_factor()}}
    print(json.dumps(record))
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "attempted": attempted, "failed": failed,
                    "metrics": metrics}, indent=1) + "\n"
    )
    correct = failed == 0
    if writing and correct:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        stored[args.workload] = run.observed
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.write_reference:
            command.append("--write-reference")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {done.returncode})", file=sys.stderr)
            correct = False
            continue
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long a run measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's simulated counts as the default seed's "
        "reference data (perfbench/reference.json)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
