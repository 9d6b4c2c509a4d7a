"""The perfbench workloads, generated from the workload seed.

A workload is a fixed list of scenarios in the JSON format that
`collitest.harness.load_scenarios` reads, plus the master seed of their
trials.  The workload seed chooses the master seed and the seed of the
random CONGEST topology and nothing else, so every seed runs the same
models at the same sizes; only the drawn samples (and with them the
early exits on far inputs) and the random topology change.

Why each workload exists, and which layers it loads:

* dense_cliques: few, large cliques.  A trial draws thousands of samples
  from one to 16 generators and counts them with one bincount per
  clique; set-up builds the 9.9 M-edge centralized clique.  Loads the
  `graph`, `dist` and `tester` kernels; the per-path generator cost is a
  small share.
* stream_batches: 3105 batches of 20 samples per trial, each batch on
  its own generator.  Loads `rng`, `dist.sample` and the small-block
  kernel; no graph is built, so planning is all of set-up.  The heavy
  input exits early, so a change that helps full streams but slows the
  early exit shows.
* congest_mixed: the three CONGEST paths at n = 16.  Set-up is the
  network diameter computation and the BFS flood; trials draw one
  generator per node and charge per-edge `BitMeter.send` calls and the
  pipelining rounds.  Loads `congest` and `rng`; no comparison graph is
  built.
"""
from __future__ import annotations

import random

WORKLOADS = ("dense_cliques", "stream_batches", "congest_mixed")
# the family a scenario must plan with at every seed: a random topology
# that failed to certify would move combined_random to the bundled path
FAMILIES = {"combined_random": "topology"}


def _dense_cliques(topology_seed: int) -> list[dict]:
    return [
        {"id": "central_uniform", "model": "centralized", "n": 256,
         "eps": 0.5, "dist": {"kind": "uniform"}, "trials": 2000},
        {"id": "central_bump", "model": "centralized", "n": 256,
         "eps": 0.5, "dist": {"kind": "bump"}, "trials": 2000},
        {"id": "simultaneous_uniform", "model": "simultaneous", "n": 1024,
         "eps": 0.5, "k": 16, "dist": {"kind": "uniform"}, "trials": 2000},
        {"id": "asymmetric_heavy", "model": "asymmetric", "n": 1024,
         "eps": 0.5, "rates": [4, 2, 1, 1], "dist": {"kind": "heavy"},
         "trials": 2000},
    ]


def _stream_batches(topology_seed: int) -> list[dict]:
    return [
        {"id": "stream_uniform", "model": "streaming", "n": 1024, "eps": 0.5,
         "m_bits": 400, "dist": {"kind": "uniform"}, "trials": 10},
        {"id": "stream_heavy", "model": "streaming", "n": 1024, "eps": 0.5,
         "m_bits": 400, "dist": {"kind": "heavy"}, "trials": 100},
        {"id": "simstream_uniform", "model": "simultaneous_streaming",
         "n": 1024, "eps": 0.5, "k": 8, "m_bits": 400,
         "dist": {"kind": "uniform"}, "trials": 10},
        {"id": "simstream_bump", "model": "simultaneous_streaming",
         "n": 1024, "eps": 0.5, "k": 8, "m_bits": 400,
         "dist": {"kind": "bump"}, "trials": 6},
    ]


def _congest_mixed(topology_seed: int) -> list[dict]:
    return [
        {"id": "local_clique", "model": "congest_local", "n": 16, "eps": 1.0,
         "topology": {"kind": "clique", "k": 280},
         "dist": {"kind": "uniform"}, "trials": 60},
        {"id": "pipelined_path", "model": "congest_pipelined", "n": 16,
         "eps": 1.0, "topology": {"kind": "path", "k": 300},
         "dist": {"kind": "bump"}, "trials": 20},
        {"id": "combined_random", "model": "congest_combined", "n": 16,
         "eps": 1.0,
         "topology": {"kind": "random_connected", "k": 800,
                      "extra_edge_prob": 0.01, "seed": topology_seed},
         "dist": {"kind": "uniform"}, "trials": 60},
    ]


_BUILDERS = {"dense_cliques": _dense_cliques,
             "stream_batches": _stream_batches,
             "congest_mixed": _congest_mixed}


def build(name: str, seed: int) -> dict:
    """Scenario input for workload `name` under workload seed `seed`.

    The result is accepted by `harness.load_scenarios` as is; its
    `master_seed` and `topology_seed` keys record the derived seeds.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rnd = random.Random(seed)
    master_seed = rnd.getrandbits(32)
    topology_seed = rnd.getrandbits(32)
    return {"master_seed": master_seed, "topology_seed": topology_seed,
            "scenarios": _BUILDERS[name](topology_seed)}
