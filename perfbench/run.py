"""collitest benchmark: seeded scenarios through `harness.run_scenario`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_cliques --seed 1 \\
        --seconds 40 --trace 0

Every measurement is a fresh single process (`child.py`), so nothing a
process caches can carry over into another measurement.  The run repeats
rounds for `--seconds` seconds (at least MIN_ROUNDS rounds); a round
starts only if it is expected to end within them:

* `--trace 0`: a round is cold set-up processes, repeated until they
  took SETUP_ROUND_S, and one untraced process running the whole
  workload.  Prints the end-to-end metrics: medians over rounds of
  `wall_s`, `peak_rss_mb` and `trials_per_s`, and `setup_s`, the
  fastest of all cold set-up times of the run.  `trials_per_s`
  is trials / (`wall_s` - the set-up time that same process spent
  before its first trials), so both times come from one clock.
* `--trace 1`: a round is one untraced and one traced process.  Prints
  the per-layer metrics of the traced processes (medians for times;
  counts must repeat exactly) and `trace.overhead_share`, the median
  traced wall time over the median untraced one, minus one.

Checks on every process's output; a scenario run fails if it raised, if
a uniform input was accepted in fewer than 70 % of its trials or a far
input in more than 30 %, if a trial terminated early on anything but a
NO, if it planned with another family than `workloads.FAMILIES` names
for it, or if its summary CSV row differs from the first untraced run's
(which, with `--trace 1`, checks the traced CSV against the untraced).
`failed` counts failed scenario runs among `attempted`, and `correct`
is true when nothing failed and the trace counts repeated.

Child processes run with OpenBLAS, OpenMP and MKL pinned to one thread:
with the default pool the first dense matrix product in `Network()` was
several times slower than later ones, which made set-up times jump.
The last line of standard output is the JSON result; lines before it
name the seeds and print every metric with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_ROUNDS = 3
SETUP_ROUND_S = 1.0
CHILD_TIMEOUT_S = 150
UNIFORM_MIN_YES = 0.70
FAR_MAX_YES = 0.30
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

# metric names and units are the ones BENCHMARK.json declares
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# per-layer metrics that must repeat exactly between runs of the same input
COUNTS = tuple(name for name, unit in PER_LAYER.items()
               if unit not in ("s", "ms") and name != "trace.overhead_share")


def child(mode: str, payload: str) -> dict:
    """Run one pass in a fresh process and return its JSON result."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode],
                          input=payload, capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scenario_failures(result: dict, reference_csv: dict) -> list[str]:
    """Why each failed scenario run of one pass failed; empty when none did."""
    out = []
    for rep in result["scenarios"]:
        sid = rep["id"]
        if rep["error"] is not None:
            out.append(f"{sid}: raised {rep['error']}")
            continue
        if rep["dist"] == "uniform" and rep["yes_rate"] < UNIFORM_MIN_YES:
            out.append(f"{sid}: uniform yes-rate {rep['yes_rate']}")
        elif rep["dist"] != "uniform" and rep["yes_rate"] > FAR_MAX_YES:
            out.append(f"{sid}: far yes-rate {rep['yes_rate']}")
        elif rep["early_on_yes"]:
            out.append(f"{sid}: {rep['early_on_yes']} early exits on YES")
        elif rep["family"] != workloads.FAMILIES.get(sid, rep["family"]):
            out.append(f"{sid}: took the {rep['family']} path, not the "
                       f"{workloads.FAMILIES[sid]} one")
        elif rep["csv"] != reference_csv.setdefault(sid, rep["csv"]):
            out.append(f"{sid}: summary CSV differs from the untraced run")
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = workloads.build(name, seed)
    payload = json.dumps(work)
    deadline = time.monotonic() + seconds
    setups, walls, traced = [], [], []
    last_round = 0.0
    # a round starts only if one as long as the last still ends in time
    while (len(walls) < MIN_ROUNDS
           or time.monotonic() + last_round <= deadline):
        started = time.monotonic()
        if trace:
            walls.append(child("wall", payload))
            traced.append(child("traced", payload))
        else:
            # short set-ups repeat, so that more of them sample fast spells
            began = time.monotonic()
            setups.append(child("setup", payload)["setup_s"])
            while time.monotonic() - began < SETUP_ROUND_S:
                setups.append(child("setup", payload)["setup_s"])
            walls.append(child("wall", payload))
        last_round = time.monotonic() - started

    reference_csv: dict[str, str] = {}
    problems = []
    attempted = 0
    failed = 0
    for result in walls + traced:  # untraced first: they set the reference
        found = scenario_failures(result, reference_csv)
        attempted += len(result["scenarios"])
        failed += len(found)
        problems.extend(found)
    trials = sum(rep.get("trials", 0) for rep in walls[0]["scenarios"])
    wall_s = statistics.median(r["wall_s"] for r in walls)
    if trace:
        layers = [r["layers"] for r in traced]
        for layer in layers[1:]:
            moved = [k for k in COUNTS if layer[k] != layers[0][k]]
            if moved:
                problems.append(f"trace counts moved between runs: {moved}")
        metrics = {k: layers[0][k] if k in COUNTS
                   else statistics.median(layer[k] for layer in layers)
                   for k in PER_LAYER if k != "trace.overhead_share"}
        traced_wall_s = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_share"] = traced_wall_s / wall_s - 1
        units = PER_LAYER
    else:
        # cold set-ups fall into fast and slow spells of the machine; the
        # fastest of a run's set-ups reads the same work the same way,
        # where their median jumped with the share of slow spells
        metrics = {"wall_s": wall_s,
                   "setup_s": min(setups),
                   "trials_per_s": statistics.median(
                       trials / (w["wall_s"] - w["setup_in_s"])
                       for w in walls),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                    for r in walls)}
        units = END_TO_END
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"work": work, "rounds": len(walls), "trials": trials,
            "setups": len(setups),
            "tail_pct": traced[0]["trial_tail_pct"] if trace else None,
            "walls": (wall_s, traced_wall_s) if trace else None,
            "attempted": attempted, "failed": failed,
            "correct": not problems,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "collitest" / "__init__.py").is_file():
        print(f"perfbench: no collitest sources at {SRC}; run it from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    work = out["work"]
    print(f"workload {args.workload} seed {args.seed} master_seed "
          f"{work['master_seed']} topology_seed {work['topology_seed']} "
          f"rounds {out['rounds']} trials {out['trials']}"
          + (f" setup_runs {out['setups']}" if out["setups"] else ""))
    if out["walls"]:
        print("pass wall time, median: untraced {:.6g} s, traced {:.6g} s"
              .format(*out["walls"]))
    for name, m in out["metrics"].items():
        label = ""
        if name == "harness.trial_ms_tail":
            label = (f" (percentile {out['tail_pct']:.4g} of "
                     f"{out['trials']} trials)")
        print(f"{name} {m['value']:.6g} {m['unit']}{label}")
    print(f"fail_share {out['failed'] / out['attempted']:.6g} share "
          f"({out['failed']} of {out['attempted']} scenario runs)")
    print(json.dumps({"correct": out["correct"],
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
