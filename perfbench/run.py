"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` trains the workload in a closed loop for ``--seconds`` and
reports the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1``
makes a separate traced run and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count correctness gates. The full result, with machine info and sample
counts, is also written to ``perfbench-out/``. ``--workload all`` runs
every workload in its own process and prints one table.

Workload configs, seeds and the layer predictions are in
``perfbench/workloads.json``; ``perfbench/NOTES.md`` says what is left out.
Exit codes: 0 all gates passed, 1 a gate failed, 2 the program is missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv, spec):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measured time per run (default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: traced per-layer metrics")
    return p.parse_args(argv)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args, spec) -> int:
    import harness
    import stats

    workloads = harness.load_workloads()
    w = workloads[args.workload]
    gates = harness.Gates()
    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}"
    if args.trace:
        values, samples = harness.trace(w, args.seed, args.seconds, gates,
                                        harness.OUT_DIR / f"{stem}.spans.npz")
        listed = spec["per_layer"]
    else:
        values, samples = harness.measure(w, args.seed, args.seconds, gates)
        listed = spec["end_to_end"]
    missing = sorted({m["name"] for m in listed} - set(values))
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[stats.check_metric_name(m["name"])], "unit": m["unit"]}
               for m in listed}
    result = {"correct": not gates.failures, "attempted": gates.attempted,
              "failed": len(gates.failures), "metrics": metrics}

    full = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": harness.machine_info(), "samples": samples,
            "gate_failures": gates.failures, **result}
    (harness.OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print("machine " + json.dumps(full["machine"]))
    print("samples " + json.dumps({k: v for k, v in samples.items()
                                   if not isinstance(v, (list, dict))}))
    for name, value in samples.get("wall_clock", {}).items():
        print(f"wall-clock {name:<29s} {value:>16.6g}")
    for failure in gates.failures:
        print(f"GATE FAILED: {failure}")
    for name, m in metrics.items():
        print(f"{name:<40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{w['name']}: exited {done.returncode} without a result")
            return 2
        results[w["name"]] = json.loads(lines[-1])
    names = list(results)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{'metric':<34s} {'unit':<9s}" + "".join(f" {n:>20s}" for n in names))
    for m in listed:
        print(f"{m['name']:<34s} {m['unit']:<9s}" + "".join(
            f" {results[n]['metrics'][m['name']]['value']:>20.6g}" for n in names))
    print(f"{'checks_failed / checks_attempted':<44s}" + "".join(
        f" {str(results[n]['failed']) + ' / ' + str(results[n]['attempted']):>20s}" for n in names))
    if not args.trace and {"joint-recurrent", "cached-1S-recurrent"} <= set(results):
        ratio = (results["cached-1S-recurrent"]["metrics"]["train_interactions_per_ref"]["value"]
                 / results["joint-recurrent"]["metrics"]["train_interactions_per_ref"]["value"])
        print(f"info (not gated): cached-1S-recurrent trains {ratio:.2f}x as many "
              "interactions per second as joint-recurrent")
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed,
                      "metrics": {f"{n}.{k}": v for n in names
                                  for k, v in results[n]["metrics"].items()}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    spec = bench_spec()
    args = parse_args(argv, spec)
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "gram" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'gram'} is missing", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread, set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
