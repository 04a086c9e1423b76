"""Time-to-certified-equilibrium benchmark of lapden.

    python3 perfbench/run.py --workload exp_1d --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload, each in a fresh single-threaded
interpreter (perfbench/rep.py), one after another: a closed loop with one
client.  Repetitions start until the next one would end after --seconds
(at least two, so artifacts can be compared across them).  Every run ends
within RUN_LIMIT_S, which caps --seconds at 170.  With --trace 0
it prints the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced repetitions and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with the
environment, goes to perfbench/out/results/.  --smoke runs tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from rep import planned_solves

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exp_1d", "exp_2d", "cli_1d")
THREAD_ENV = {
    "LAPDEN_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
RUN_LIMIT_S = 170.0  # every run, repetitions included, ends within 180 s


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(args, index: int, trace: int, deadline: float) -> dict:
    """One repetition's result.  A repetition that crashes or runs past the
    deadline is returned as lost, with all its planned solves failed."""
    workdir = OUT / "work" / f"rep{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = OUT / "work" / f"rep{index}.json"
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return lost(args, trace, f"killed at the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        return lost(args, trace, f"exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(workdir)
    result_path.unlink()
    return result


def lost(args, trace: int, reason: str) -> dict:
    planned = planned_solves(args.workload, args.smoke)
    return {"trace": trace, "lost": reason, "attempted": planned, "failed": planned}


def warm_up(deadline: float) -> None:
    """Compile lapden's bytecode once, so no repetition's set-up pays for it.

    A failure here shows again, and is counted, in the first repetition.
    """
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import lapden, lapden.cli, lapden.experiments")
    try:
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, **THREAD_ENV),
                       cwd=ROOT, capture_output=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass


def run_reps(args) -> list[dict]:
    """Closed loop: the next repetition starts when the previous one ended.

    The loop stops early at the first lost repetition.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    warm_up(deadline)
    start = time.monotonic()
    reps, durations = [], []
    while True:
        trace = args.trace and len(reps) % 2  # traced runs alternate 0, 1, 0, 1, ...
        t0 = time.monotonic()
        reps.append(run_rep(args, len(reps), trace, deadline))
        durations.append(time.monotonic() - t0)
        ends = time.monotonic() + statistics.median(durations)
        if "lost" in reps[-1] or (
                len(reps) >= 2 and (ends > start + args.seconds or ends > deadline)):
            return reps


def consistency_problems(reps: list[dict]) -> list[str]:
    """Every repetition of one seed must produce the same bytes and solves."""
    first = reps[0]
    problems = []
    for i, rep in enumerate(reps[1:], start=1):
        if rep["hashes"] != first["hashes"]:
            changed = sorted(k for k in set(rep["hashes"]) | set(first["hashes"])
                             if rep["hashes"].get(k) != first["hashes"].get(k))
            problems.append(f"repetition {i}: artifacts differ from repetition 0: "
                            f"{changed[:5]}")
        key = [(s["method"], s["iters"], s.get("rel_err")) for s in rep["solves"]]
        if key != [(s["method"], s["iters"], s.get("rel_err")) for s in first["solves"]]:
            problems.append(f"repetition {i}: solves differ from repetition 0")
    return problems


def end_to_end(plain: list[dict]) -> dict:
    """End-to-end metrics of the untraced repetitions."""
    med = statistics.median
    calls = [c for rep in plain for c in rep["call_s"]]
    nlap = [s["rel_err"] for s in plain[0]["solves"]
            if s["method"] == "nlap" and "rel_err" in s]
    return {
        "wall_s": (med(r["wall_s"] for r in plain), "s"),
        "nlap_s": (med(r["nlap_s"] for r in plain), "s"),
        "call_p50_ms": (1e3 * percentile(calls, 50), "ms"),
        "call_p95_ms": (1e3 * percentile(calls, 95), "ms"),
        "calls_per_s": (med(len(r["call_s"]) / r["wall_s"] for r in plain), "1/s"),
        "nlap_rel_err": (statistics.fmean(nlap) if nlap else 0.0, "ratio"),
        "setup_s": (med(r["setup_s"] for r in plain), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict], attempted: int,
              failed: int, units: dict) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    med = statistics.median
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = (med(r["layers"][name] for r in traced), units.get(name, ""))
    tv = [s["rel_err"] for s in plain[0]["solves"] if s["method"] == "tv" and "rel_err" in s]
    metrics.update({
        "trace_overhead_s": (med(r["wall_s"] for r in traced)
                             - med(r["wall_s"] for r in plain), "s"),
        "tv_s": (med(r["tv_s"] for r in plain), "s"),
        "tv_rel_err": (statistics.fmean(tv) if tv else 0.0, "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
        "solves": (plain[0]["attempted"], "count"),
        "call_samples": (sum(len(r["call_s"]) for r in plain), "count"),
        "trace_absent_names": (len(traced[0]["absent"]), "count"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lapden" / "__init__.py").is_file():
        print(f"perfbench: no lapden sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    reps = run_reps(args)
    shutil.rmtree(OUT / "work", ignore_errors=True)
    done = [r for r in reps if "lost" not in r]
    plain = [r for r in done if not r["trace"]]
    traced = [r for r in done if r["trace"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = consistency_problems(done) if done else []
    for i, rep in enumerate(reps):
        if "lost" in rep:
            problems.append(f"repetition {i}: lost, {rep['lost']}")
            continue
        problems += [f"repetition {i}: {p}" for p in rep["problems"]]
        problems += [f"repetition {i}: {s['method']} {s['dims']}D solve: {s['reason']}"
                     for s in rep["solves"] if not s["ok"]]
    metrics = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if plain and traced:
            metrics = per_layer(plain, traced, attempted, failed, units)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        if plain:
            metrics = end_to_end(plain)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    printed = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
               for name in wanted if name in metrics}
    correct = not problems and failed == 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            **(done[0]["versions"] if done else {}),
            "threads": THREAD_ENV,
            "git_commit": git_commit(),
        },
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        # iterations of one repetition: the work its seed's inputs take
        "iters": {method: sum(s["iters"] for s in done[0]["solves"] if s["method"] == method)
                  for method in ("nlap", "tv")} if done else {},
        "repetitions": reps,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({len(plain)} untraced, {len(traced)} traced), {attempted} solves, "
          f"{failed} failed; {sum(len(r['call_s']) for r in plain)} timed calls; "
          f"record {path.relative_to(ROOT)}")
    for name, m in printed.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
