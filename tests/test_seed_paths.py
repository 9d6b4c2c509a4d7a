"""Seed-path contract v1: pinned output bytes for a fixed master seed.

Each suite below is a reduced copy of one benchmark workload (same
models, sizes and inputs, 20 trials a scenario) at the seeds the
benchmark derives from its workload seed 1.  The sha256 of the suite
CSV followed by the trial JSONL was recorded before the batched clique
draws replaced one generator per owner, so any change of a drawn value,
a decision or a ledger field shows here.  A change that means to alter
these bytes must say so and pin the new hashes.
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
        "e15ba626a1d777b8c98b2c2809388275d17b6d684b8a91688af426cc0645c421",
    "stream_batches":
        "559d52ef81edb1719fb5a0cc60263bdda2ce4a0416375fb8a3e84521846b9771",
    "congest_mixed":
        "104193c932b0d196da33de1e452bad313a0bbcab2213440bad79ef788f4c4f1e",
}


def suite_digest(scenarios) -> str:
    scenarios = load_scenarios([dict(s, trials=TRIALS) for s in scenarios])
    csv_text, results = run_suite(scenarios, MASTER_SEED)
    jsonl = "".join(records_to_jsonl(r.records) for r in results)
    return hashlib.sha256((csv_text + jsonl).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_bytes_are_pinned(name):
    assert suite_digest(SUITES[name]) == GOLDEN[name]
