"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload <name|all> --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, each for
``run_seconds`` from ``BENCHMARK.json``, the run length the bounds are set
for. Prints for each metric the median, and the distance between the first
and third quartile as a share of the median next to the metric's bound from
``BENCHMARK.json``. A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import iqr_share

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/spread.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    worst = 0.0
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: exit {done.returncode}, {result['failed']} gates failed")
                return 1
            runs.append(result["metrics"])
        print(f"{name}: {len(runs)} seeds, {seconds:g} s each")
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            share = iqr_share(values)
            ratio = share / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            flag = "  <-- above bound/3" if ratio > 1 / 3 else ""
            print(f"  {m['name']:<26s} median {statistics.median(values):>14.6g} {m['unit']:<9s}"
                  f" spread {share:7.4f}  bound {m['bound']:.2f}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
