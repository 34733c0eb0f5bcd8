#!/usr/bin/env python3
"""Check that the benchmark's work counters are exact and its trace accounts for the run.

Run from the repository root (takes about five minutes):

    python3 perfbench/check_counters.py

For each sweep workload this makes two traced runs at the default seed and
one at a held-out seed, through perfbench/run.py. It fails unless:
  * every run is correct (outputs match the recorded references, the traced
    replay equals the artifact, and the layer spans plus runner.self_s
    account for the traced wall time);
  * the two default-seed runs report exactly equal work counters;
  * the held-out seed changes nfi.comms.
It prints trace.overhead_frac and, for tables-paper, the FFI share of the
traced wall time (reported, not gated).
"""

import json
import subprocess
import sys

DEFAULT_SEED = 20130701
HELD_OUT_SEED = 7
EXACT = [
    "nfi.calls", "nfi.candidates", "nfi.comms", "nfi.remote_comms",
    "ffi.calls", "ffi.interp_comms", "ffi.anterp_comms", "ffi.ilist_comms", "ffi.ilist_candidates",
    "index.cells", "assignment.builds", "assignment.dense_grids", "assignment.grid_bytes",
    "machine.builds", "machine.oracle_builds", "machine.oracle_bytes", "particles.count",
]


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    return result, record, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    problems = []
    for workload in ["tables-paper", "radius-sweep"]:
        runs = [traced_run(workload, s) for s in (DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED)]
        for seed, (result, record, _) in zip((DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED), runs):
            failed = [c["check"] for c in record["checks"] if not c["ok"]]
            if not result["correct"] or failed:
                problems.append(f"{workload} seed {seed}: incorrect run, failed checks {failed}")
        (_, _, a), (_, _, b), (_, _, held) = runs
        for name in EXACT:
            if a[name] != b[name]:
                problems.append(f"{workload}: {name} differs between identical runs: {a[name]} vs {b[name]}")
        if held["nfi.comms"] == a["nfi.comms"]:
            problems.append(f"{workload}: nfi.comms did not change with the seed")
        print(f"{workload}: counters exact over 2 runs; nfi.comms {a['nfi.comms']:.0f} "
              f"(seed {HELD_OUT_SEED}: {held['nfi.comms']:.0f}); trace.overhead_frac "
              f"{a['trace.overhead_frac']:+.4f}, {b['trace.overhead_frac']:+.4f}; "
              f"runner.self_s {a['runner.self_s']:.4f}; ffi.wall_share {a['ffi.wall_share']:.3f}")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
