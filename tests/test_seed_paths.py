"""Seed-path contract v3: pinned output bytes for a fixed master seed.

Each suite below is a reduced copy of one benchmark workload (same
models, sizes and inputs, 20 trials a scenario) at the seeds the
benchmark derives from its workload seed 1.  The sha256 of the suite
CSV followed by the trial JSONL was recorded when contract v3 (one
generator per trial, built from a cached root and numpy's golden-ratio
jump; sample j from raw word j; a random topology read from the root,
see `collitest.rng`) replaced a SeedSequence per trial, so any change
of a drawn value, a decision or a ledger field shows here.  A change that
means to alter these bytes must say so and pin the new hashes.
"""
import hashlib

import pytest

from collitest.harness import load_scenarios, records_to_jsonl, run_suite

MASTER_SEED = 577090037
TOPOLOGY_SEED = 2444712010
TRIALS = 20

SUITES = {
    "dense_cliques": [
        {"id": "central_uniform", "model": "centralized", "n": 256,
         "eps": 0.5, "dist": {"kind": "uniform"}},
        {"id": "central_bump", "model": "centralized", "n": 256,
         "eps": 0.5, "dist": {"kind": "bump"}},
        {"id": "simultaneous_uniform", "model": "simultaneous", "n": 1024,
         "eps": 0.5, "k": 16, "dist": {"kind": "uniform"}},
        {"id": "asymmetric_heavy", "model": "asymmetric", "n": 1024,
         "eps": 0.5, "rates": [4, 2, 1, 1], "dist": {"kind": "heavy"}},
    ],
    "stream_batches": [
        {"id": "stream_uniform", "model": "streaming", "n": 1024, "eps": 0.5,
         "m_bits": 400, "dist": {"kind": "uniform"}},
        {"id": "stream_heavy", "model": "streaming", "n": 1024, "eps": 0.5,
         "m_bits": 400, "dist": {"kind": "heavy"}},
        {"id": "simstream_uniform", "model": "simultaneous_streaming",
         "n": 1024, "eps": 0.5, "k": 8, "m_bits": 400,
         "dist": {"kind": "uniform"}},
        {"id": "simstream_bump", "model": "simultaneous_streaming",
         "n": 1024, "eps": 0.5, "k": 8, "m_bits": 400,
         "dist": {"kind": "bump"}},
    ],
    "congest_mixed": [
        {"id": "local_clique", "model": "congest_local", "n": 16, "eps": 1.0,
         "topology": {"kind": "clique", "k": 280},
         "dist": {"kind": "uniform"}},
        {"id": "pipelined_path", "model": "congest_pipelined", "n": 16,
         "eps": 1.0, "topology": {"kind": "path", "k": 300},
         "dist": {"kind": "bump"}},
        {"id": "combined_random", "model": "congest_combined", "n": 16,
         "eps": 1.0,
         "topology": {"kind": "random_connected", "k": 800,
                      "extra_edge_prob": 0.01, "seed": TOPOLOGY_SEED},
         "dist": {"kind": "uniform"}},
    ],
}

GOLDEN = {
    "dense_cliques":
        "5130d3c3e31bd3bad95d6c37347c5f4d0e2d4c1c33206be97902ef71b8b72708",
    "stream_batches":
        "e1750d580bf93c758264c75a3e46a07fee390474ca582866cfb688d478a1bb1f",
    "congest_mixed":
        "ec11bf20b4b66eacf05064063296101b23f500714c7401e8532adcd1ca5f0ab0",
}


def suite_digest(scenarios) -> str:
    scenarios = load_scenarios([dict(s, trials=TRIALS) for s in scenarios])
    csv_text, results = run_suite(scenarios, MASTER_SEED)
    jsonl = "".join(records_to_jsonl(r.records) for r in results)
    return hashlib.sha256((csv_text + jsonl).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_bytes_are_pinned(name):
    assert suite_digest(SUITES[name]) == GOLDEN[name]
