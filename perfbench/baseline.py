"""Measure every workload and write perfbench/baseline.json (~45 minutes).

    python3 perfbench/baseline.py

For each workload it makes ten untraced runs on seeds 1-10, ten more on
seed 1 alone and one traced run on seed 1.  Seeds 1-10 are what the
benchmark's steadiness is judged on.  The runs of seed 1 repeat identical
inputs, so their spread is timing noise alone; each seed's iteration totals
show how much work its inputs take.  A spread is (Q3 - Q1) / median, with
quartiles as statistics.quantiles(values, n=4) gives them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS

SEEDS = range(1, 11)
REPEATED_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the record of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    record = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(record.read_text(encoding="utf-8")))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def runs(workload: str, seeds: list[int], seconds: int, names: list[str]) -> dict:
    results, iters = [], {"nlap": [], "tv": []}
    for seed in seeds:
        result, record = run_once(workload, seed, seconds, 0)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"iters={record['iters']}", flush=True)
        results.append(result)
        for method in iters:
            iters[method].append(record["iters"][method])
    return {
        "seeds": seeds,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        # iterations of one repetition, per run: the work of each seed's inputs
        "iters": {method: summarize(v) for method, v in iters.items() if any(v)},
        "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in results])
                       for name in names},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = {"run_seconds": seconds, "bounds": bounds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {
            "seeds": runs(workload, list(SEEDS), seconds, list(bounds)),
            "repeated_seed": runs(workload, [REPEATED_SEED] * 10, seconds, list(bounds)),
        }
        traced, record = run_once(workload, REPEATED_SEED, seconds, 1)
        entry["per_layer"] = {"seed": REPEATED_SEED, "correct": traced["correct"],
                              **{k: v["value"] for k, v in traced["metrics"].items()}}
        baseline["workloads"][workload] = entry
        baseline["environment"] = record["environment"]
        for name, bound in bounds.items():
            a = entry["seeds"]["end_to_end"][name]
            b = entry["repeated_seed"]["end_to_end"][name]
            print(f"  {name:14s} seeds 1-10: median {a['median']:.6g} spread "
                  f"{a['spread']:.3f} | seed {REPEATED_SEED} x10: median {b['median']:.6g} "
                  f"spread {b['spread']:.3f} | bound {bound}", flush=True)
        for method, s in entry["seeds"]["iters"].items():
            print(f"  {method} iterations per repetition, seeds 1-10: median "
                  f"{s['median']:.0f} spread {s['spread']:.3f}", flush=True)
    path = HERE / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
