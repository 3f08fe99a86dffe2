"""Seeded benchmark inputs, built through the program's public builders.

Every program is a ``(kernel, params)`` spec list handed to
:func:`repro.workloads.generators.assemble_workload`.  The lists restate
the registered micro and SPECint-proxy builders kernel for kernel, and the
benchmark seed moves each program's data seed by ``1000 * seed``, so seed 0
reproduces the registered programs bit for bit and any other seed gives
the same program shapes over different data.  Calls go through the
module attribute, so a traced run's ``workloads.build`` span sees them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.isa.program import Program
from repro.workloads import generators

DEFAULT_SEED = 0
PRESETS = ("tage_l", "b2", "tourney")

Spec = Tuple[str, Dict[str, object]]

#: name -> (data seed at bench seed 0, outer-loop base, kernels)
MICRO: Dict[str, Tuple[int, int, Sequence[Spec]]] = {
    "steady_loop": (11, 40, [("stream", {"n": 96})]),
    "biased": (12, 30, [("data_branches", {"n": 64, "bias": 0.9})]),
    "pattern_short": (13, 30, [("correlated", {"n": 64, "period": 4})]),
    "pattern_long": (14, 30, [("correlated", {"n": 64, "period": 24})]),
    "random": (15, 30, [("lcg_branches", {"n": 64, "threshold": 128})]),
    "counted_loops": (16, 40, [("nested_loops", {"trips": (6, 9, 4)})]),
    "dense_aliasing": (17, 25, [("dense_branches", {"n": 48, "n_tests": 6})]),
    "pointer_chase": (18, 25, [("linked_list", {"n_nodes": 96, "spread": 4})]),
    "dispatch": (19, 25, [("switch", {"n": 48, "n_cases": 6})]),
    "call_ret": (20, 60, [("recursive", {"depth": 10})]),
}

SPECINT: Dict[str, Tuple[int, int, Sequence[Spec]]] = {
    "perlbench": (101, 26, [
        ("switch", {"n": 48, "n_cases": 8}),
        ("hammock", {"n": 48, "bias": 0.4}),
        ("correlated", {"n": 48, "period": 6}),
        ("data_branches", {"n": 32, "bias": 0.3}),
        ("recursive", {"depth": 6}),
    ]),
    "gcc": (102, 24, [
        ("dense_branches", {"n": 40, "n_tests": 6}),
        ("switch", {"n": 32, "n_cases": 6}),
        ("correlated", {"n": 48, "period": 10}),
        ("data_branches", {"n": 32, "bias": 0.6}),
        ("string_ops", {"length": 10}),
    ]),
    "mcf": (103, 34, [
        ("linked_list", {"n_nodes": 192, "spread": 16}),
        ("lcg_branches", {"n": 56, "threshold": 110}),
        ("data_branches", {"n": 40, "bias": 0.5}),
    ]),
    "omnetpp": (104, 27, [
        ("linked_list", {"n_nodes": 96, "spread": 8}),
        ("switch", {"n": 40, "n_cases": 6}),
        ("lcg_branches", {"n": 32, "threshold": 96}),
        ("correlated", {"n": 32, "period": 8}),
    ]),
    "xalancbmk": (105, 30, [
        ("recursive", {"depth": 10}),
        ("switch", {"n": 40, "n_cases": 5}),
        ("correlated", {"n": 56, "period": 12}),
        ("string_ops", {"length": 14}),
    ]),
    "x264": (106, 34, [
        ("nested_loops", {"trips": (4, 8, 4)}),
        ("stream", {"n": 96}),
        ("stream", {"tag": "k_stream2", "n": 64}),
        ("correlated", {"n": 32, "period": 4}),
        ("data_branches", {"n": 16, "bias": 0.8}),
    ]),
    "deepsjeng": (107, 28, [
        ("recursive", {"depth": 12}),
        ("lcg_branches", {"n": 56, "threshold": 128}),
        ("lcg_branches", {"tag": "k_lcg2", "n": 40, "threshold": 80}),
        ("dense_branches", {"n": 24, "n_tests": 5}),
    ]),
    "leela": (108, 28, [
        ("lcg_branches", {"n": 48, "threshold": 128}),
        ("linked_list", {"n_nodes": 80, "spread": 6}),
        ("recursive", {"depth": 8}),
        ("data_branches", {"n": 40, "bias": 0.45}),
    ]),
    "exchange2": (109, 26, [
        ("nested_loops", {"trips": (6, 9, 5)}),
        ("nested_loops", {"tag": "k_nest2", "trips": (3, 4, 9)}),
        ("stream", {"n": 48}),
        ("correlated", {"n": 24, "period": 3}),
    ]),
    "xz": (110, 28, [
        ("lcg_branches", {"n": 48, "threshold": 150}),
        ("correlated", {"n": 48, "period": 16}),
        ("data_branches", {"n": 48, "bias": 0.35}),
        ("stream", {"n": 32}),
    ]),
}


def data_seed(base: int, seed: int) -> int:
    return (base + 1000 * seed) % 2**32


def micro_programs(seed: int, scale: float) -> Dict[str, Program]:
    """The 10 micro classes; outer loops as ``repro.workloads.micro``."""
    return {
        name: generators.assemble_workload(
            name, data_seed(base, seed), kernels, int(outer * scale) or 1
        )
        for name, (base, outer, kernels) in MICRO.items()
    }


def specint_programs(seed: int, scale: float) -> Dict[str, Program]:
    """The 10 SPECint proxies; outer loops as ``repro.workloads.specint``."""
    return {
        name: generators.assemble_workload(
            name, data_seed(base, seed), kernels, max(1, int(round(outer * scale)))
        )
        for name, (base, outer, kernels) in SPECINT.items()
    }


def service_specs(seed: int, scale: float) -> List[Mapping[str, object]]:
    """Trace-backend job specs: every preset on every micro class, in a
    seeded order, each with a seeded instruction limit in [3000, 3100).

    The limit makes every spec novel to a fresh cache while keeping the
    cost of one job nearly the same from seed to seed.
    """
    rng = random.Random(f"perfbench-service:{seed}")
    pairs = [(p, w) for p in PRESETS for w in MICRO]
    rng.shuffle(pairs)
    return [
        {
            "predictor": predictor,
            "workload": workload,
            "backend": "trace",
            "scale": scale,
            "max_instructions": 3000 + rng.randrange(100),
        }
        for predictor, workload in pairs
    ]


#: Seeds of the two fixed searches every explore run adds to the bench
#: seed's own, so one run's timing averages three search trajectories.
EXPLORE_ANCHOR_SEEDS = (1_000_001, 1_000_002)


def explore_seeds(seed: int) -> Tuple[int, ...]:
    return (seed,) + EXPLORE_ANCHOR_SEEDS
