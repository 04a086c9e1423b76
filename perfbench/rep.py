"""One repetition of a perfbench workload, in a fresh interpreter.

run.py starts this script once per repetition:

    python3 perfbench/rep.py --workload exp_1d --seed 7 --trace 0 \
        --workdir perfbench/out/work/0 --spawn-ns <CLOCK_MONOTONIC ns> \
        --result perfbench/out/work/0.json

It imports lapden from ``src/`` of the checkout, generates the workload's
inputs, times the workload's calls into lapden's public entry points, then
checks every solve and every output and writes one JSON result.  Set-up
time runs from the parent's spawn to the first timed call, so it covers
interpreter start, ``import lapden`` and input generation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# |‖u − u0‖ − δ| / δ an adaptive solve must reach.  Solves stop on a 1e-6
# update-rate tolerance and leave about 1e-8 (2D) to 1.2e-5 (1D at n=64);
# 1e-4 keeps close to an order of magnitude of headroom above the largest.
DISCREPANCY_RTOL = 1e-4
CERT_FACTOR = 10.0  # ‖stat‖ ≤ 10·tol·λ·‖u − u0‖, as acceptance criterion 3
NOISE_REL_1D = 0.09  # the 1D experiments' noise level, reused for cli_1d

# Each workload: which inputs one repetition runs (see README.md for why).
FULL = {
    "exp_1d": {"figs": ("fig2", "fig3"), "n": 100, "seeds": 3},
    "exp_2d": {"figs": ("fig5",), "n": 64, "seeds": 3},
    "cli_1d": {"sizes": (64, 128, 256), "seeds": 8},
}
SMOKE = {
    "exp_1d": {"figs": ("fig2", "fig3"), "n": 20, "seeds": 1},
    "exp_2d": {"figs": ("fig5",), "n": 12, "seeds": 1},
    "cli_1d": {"sizes": (16, 24), "seeds": 1},
}
SHAPES = ("sine", "jump")  # cli_1d signal shapes, one input file per size and seed


def planned_solves(workload: str, smoke: bool) -> int:
    """Solves one repetition attempts: two per experiment call, one per CLI call."""
    spec = (SMOKE if smoke else FULL)[workload]
    if "figs" in spec:
        return 2 * len(spec["figs"]) * spec["seeds"]
    return len(SHAPES) * len(spec["sizes"]) * spec["seeds"]

# Solver entry points, wrapped under the names experiments and cli call them by.
SOLVERS = [
    ("lapden.experiments", "denoise_1d", "nl_filter.denoise_1d", "nlap"),
    ("lapden.experiments", "denoise_2d", "nl_filter.denoise_2d", "nlap"),
    ("lapden.experiments", "tv_denoise_1d", "tv_baseline.tv_denoise_1d", "tv"),
    ("lapden.experiments", "tv_denoise_2d", "tv_baseline.tv_denoise_2d", "tv"),
    ("lapden.cli", "denoise_1d", "nl_filter.denoise_1d", "nlap"),
]


def _size(args):
    return args[0].size


# Layer boundaries wrapped in the traced run only: (caller, name, layer, kwargs).
LAYERS = [
    ("lapden.experiments", "run_experiment", "experiments.run_experiment", {}),
    ("lapden.cli", "main", "cli.main", {}),
    ("lapden.nl_filter", "laplacian_2d_values", "grid_ops.laplacian_2d_values",
     {"units": _size}),
    ("lapden.nl_filter", "apply_banded", "grid_ops.apply_banded", {}),
    ("lapden.nl_filter", "solve_banded", "grid_ops.solve_banded", {}),
    ("lapden.nl_filter", "matmul_banded", "grid_ops.matmul_banded", {}),
    ("lapden.nl_filter", "flux", "nl_filter.flux", {}),
    ("lapden.experiments", "add_noise", "signals.add_noise", {}),
    ("lapden.experiments", "compute_metrics", "signals.compute_metrics", {}),
    ("lapden.cli", "compute_metrics", "signals.compute_metrics", {}),
] + [
    (caller, name, f"data_io.{name}", {"path_arg": 0})
    for caller, names in (
        ("lapden.experiments", ("write_csv_1d", "write_pgm", "write_svg_plot")),
        ("lapden.cli", ("read_csv_1d", "write_csv_1d", "write_svg_plot")),
    )
    for name in names
]
DATA_WRITES = ("data_io.write_csv_1d", "data_io.write_pgm", "data_io.write_svg_plot")


@dataclass
class Call:
    """One timed top-level call and what its outputs are checked against."""

    label: str
    run: object                   # thunk calling lapden.experiments / lapden.cli
    clean: object                 # clean Signal1D / Field2D of its solves
    expected_solves: int
    outputs: dict = field(default_factory=dict)
    result: object = None
    error: str | None = None
    stdout: str = ""


def import_lapden():
    """Import lapden from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lapden" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lapden sources under {src}")
    sys.path.insert(0, str(src))
    import lapden
    if Path(lapden.__file__).resolve().parent != (src / "lapden").resolve():
        raise SystemExit(f"perfbench: imported lapden from {lapden.__file__}")
    return lapden


def make_calls(L, workload: str, seed: int, spec: dict, workdir: Path) -> list[Call]:
    """Generate the workload's inputs with lapden.signals; return its calls."""
    import numpy as np
    import lapden.cli
    import lapden.experiments

    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    calls = []
    if workload in ("exp_1d", "exp_2d"):
        samplers = {"fig2": L.sample_f_sine, "fig3": L.sample_g_jumps,
                    "fig5": L.sample_f2d}
        n = spec["n"]
        for s in range(seed, seed + spec["seeds"]):
            for fig in spec["figs"]:
                calls.append(Call(
                    f"{fig}/seed{s}",
                    lambda fig=fig, s=s: lapden.experiments.run_experiment(fig, s, n, out),
                    samplers[fig](n), expected_solves=2,
                ))
        return calls

    inp = workdir / "in"
    inp.mkdir(parents=True, exist_ok=True)
    samplers = {"sine": L.sample_f_sine, "jump": L.sample_g_jumps}
    for shape in SHAPES:
        for n in spec["sizes"]:
            for s in range(seed, seed + spec["seeds"]):
                clean = samplers[shape](n)
                noisy = L.add_noise(clean, L.NoiseSpec(seed=s, delta_rel=NOISE_REL_1D))
                delta = float(np.linalg.norm(noisy.values - clean.values))
                stem = f"{shape}-{n}-{s}"
                paths = {
                    "input": inp / f"{stem}-noisy.csv",
                    "clean": inp / f"{stem}-clean.csv",
                    "output": out / f"{stem}.csv",
                    "plot": out / f"{stem}.svg",
                    "report": out / f"{stem}.jsonl",
                }
                L.write_csv_1d(paths["input"], noisy)
                L.write_csv_1d(paths["clean"], clean)
                argv = ["denoise1d", "--delta", repr(delta)]
                for flag in ("input", "output", "plot", "report", "clean"):
                    argv += [f"--{flag}", str(paths[flag])]
                call = Call(stem, None, clean, expected_solves=1, outputs=paths)
                call.run = lambda argv=argv, call=call: _cli_main(lapden.cli, argv, call)
                calls.append(call)
    return calls


def _cli_main(cli, argv, call: Call):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    call.stdout = buf.getvalue()
    return rc


def certify(L, solve: dict, clean) -> dict:
    """The correctness gate of one solve.

    It passes when the solve returned, converged, certifies the stationary
    equation ‖stat‖ ≤ 10·tol·λ·‖u − u0‖ with the final λ of its RunTrace and,
    in adaptive mode, reached ‖u − u0‖ = δ within DISCREPANCY_RTOL.
    Quality (rel_err against the clean signal) is reported, not gated.
    """
    import numpy as np

    args, kwargs = solve["args"], solve["kwargs"]
    u0 = args[0] if args else kwargs["u0"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    dims = u0.values.ndim
    rec = {"method": solve["method"], "dims": dims, "seconds": solve["seconds"],
           "iters": 0, "ok": False, "reason": ""}
    if solve["error"] is not None:
        rec["reason"] = f"raised {solve['error']!r}"
        return rec
    u, trace = solve["result"]
    rec["iters"] = trace.iters_run
    rec["rel_err"] = float(np.linalg.norm(u.values - clean.values)
                           / np.linalg.norm(clean.values))
    lam = float(trace.lambda_history[-1])
    if solve["method"] == "nlap":
        frozen = replace(params, target_delta=None, lam=lam)
        stat = L.rhs_1d(u, u0, frozen) if dims == 1 else L.rhs_2d(u, u0, frozen).values
    else:
        frozen = replace(params, lam=lam)
        stat = L.tv_rhs_1d(u, u0, frozen) if dims == 1 else L.tv_rhs_2d(u, u0, frozen).values
    fid = float(np.linalg.norm(u.values - u0.values))
    bound = CERT_FACTOR * params.tol * lam * fid
    stat_norm = float(np.linalg.norm(stat))
    rec["cert_ratio"] = stat_norm / bound if bound > 0 else float("inf")
    reasons = []
    if not trace.converged:
        reasons.append(f"not converged after {trace.iters_run} iterations")
    if not stat_norm <= bound:
        reasons.append(f"certificate {stat_norm:.3e} > {bound:.3e}")
    delta = getattr(params, "target_delta", None)
    if delta is not None:
        rec["discrepancy"] = abs(fid - delta) / delta
        if not rec["discrepancy"] <= DISCREPANCY_RTOL:
            reasons.append(f"discrepancy {rec['discrepancy']:.2e} > {DISCREPANCY_RTOL:.0e}")
    rec["ok"] = not reasons
    rec["reason"] = "; ".join(reasons)
    return rec


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def check_outputs(call: Call, recs: list[dict]) -> list[str]:
    """Compare what lapden returned or wrote for one call with its solves.

    An output that is missing or cannot be parsed is a problem of the call.
    """
    try:
        return _compare_outputs(call, recs)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"{call.label}: outputs missing or malformed: {err!r}"]


def _compare_outputs(call: Call, recs: list[dict]) -> list[str]:
    if call.error is not None:
        return [f"{call.label}: raised {call.error}"]
    problems = []
    ok_recs = [r for r in recs if "rel_err" in r]
    if call.outputs:  # a cli.main call
        if call.result != 0:
            return [f"{call.label}: exit code {call.result}"]
        if len(ok_recs) != 1:
            return [f"{call.label}: no solve result"]
        rec = ok_recs[0]
        if not call.stdout.startswith(f"denoise1d: converged after {rec['iters']} iterations"):
            problems.append(f"{call.label}: stdout {call.stdout.strip()!r}")
        lines = call.outputs["output"].read_text(encoding="utf-8").splitlines()
        if [float(x) for x in lines if not x.startswith("#")] != rec["u"]:
            problems.append(f"{call.label}: output CSV differs from the returned signal")
        row = json.loads(call.outputs["report"].read_text(encoding="utf-8"))
        summary = row["trace_summary"]
        if not (summary["converged"] and summary["iters"] == rec["iters"]):
            problems.append(f"{call.label}: report trace {summary}")
        if not _same(row["metrics_restored"]["rel_err"], rec["rel_err"]):
            problems.append(f"{call.label}: report rel_err {row['metrics_restored']['rel_err']}"
                            f" != {rec['rel_err']}")
        return problems
    rows = {row["method"]: row for row in call.result}
    for rec in ok_recs:
        row = rows.get(rec["method"])
        if row is None:
            problems.append(f"{call.label}: no report row for {rec['method']}")
            continue
        summary = row["trace_summary"]
        if not (summary["converged"] and summary["iters"] == rec["iters"]):
            problems.append(f"{call.label}/{rec['method']}: report trace {summary}")
        if not _same(row["metrics_restored"]["rel_err"], rec["rel_err"]):
            problems.append(f"{call.label}/{rec['method']}: report rel_err "
                            f"{row['metrics_restored']['rel_err']} != {rec['rel_err']}")
        for path in row["artifact_paths"]:
            if not Path(path).is_file():
                problems.append(f"{call.label}: missing artifact {path}")
    return problems


def hash_artifacts(out: Path) -> dict:
    """sha256 of every output file except the JSON-lines reports, which hold
    wall-clock times."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file() and p.suffix != ".jsonl"
    }


def layer_metrics(tracer, recs: list[dict]) -> dict:
    """Per-layer numbers of one traced repetition; ratios from counts alone."""
    from tracer import Stat

    def st(layer):
        return tracer.stats.get(layer) or Stat()

    def file_bytes(layers):
        return sum(Path(p).stat().st_size for layer in layers for p in st(layer).paths)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    it = {(m, d): sum(r["iters"] for r in recs if r["method"] == m and r["dims"] == d)
          for m in ("nlap", "tv") for d in (1, 2)}
    nl_iters = it["nlap", 1] + it["nlap", 2]
    tv_iters = it["tv", 1] + it["tv", 2]
    lap = st("grid_ops.laplacian_2d_values")
    flux = st("nl_filter.flux")
    d1, d2 = st("nl_filter.denoise_1d"), st("nl_filter.denoise_2d")
    tv_s = st("tv_baseline.tv_denoise_1d").s + st("tv_baseline.tv_denoise_2d").s
    m = {
        "grid_ops.laplacian_2d_values.calls": lap.calls,
        "grid_ops.laplacian_2d_values.s": lap.s,
        # computed from array sizes: one float64 read and one written per node
        "grid_ops.laplacian_2d_values.bytes_computed": 16 * lap.units,
    }
    for name in ("apply_banded", "solve_banded"):
        m[f"grid_ops.{name}.calls"] = st(f"grid_ops.{name}").calls
        m[f"grid_ops.{name}.s"] = st(f"grid_ops.{name}").s
    m["grid_ops.matmul_banded.calls"] = st("grid_ops.matmul_banded").calls
    m.update({
        "nl_filter.flux.calls": flux.calls,
        "nl_filter.flux.s": flux.s,
        "nl_filter.iters": nl_iters,
        "nl_filter.denoise_1d.iters": it["nlap", 1],
        "nl_filter.denoise_1d.self_s": d1.self_s,
        "nl_filter.denoise_1d.ms_per_iter": per(d1.s, it["nlap", 1], 1e3),
        "nl_filter.denoise_2d.iters": it["nlap", 2],
        "nl_filter.denoise_2d.self_s": d2.self_s,
        "nl_filter.denoise_2d.ms_per_iter": per(d2.s, it["nlap", 2], 1e3),
        "nl_filter.flux_calls_per_iter": per(flux.calls, nl_iters),
        "nl_filter.operator_calls_per_iter": per(lap.calls, it["nlap", 2]),
        "tv_baseline.iters": tv_iters,
        "tv_baseline.s": tv_s,
        "tv_baseline.ms_per_iter": per(tv_s, tv_iters, 1e3),
    })
    for name in ("read_csv_1d", "write_csv_1d", "write_svg_plot", "write_pgm"):
        m[f"data_io.{name}.s"] = st(f"data_io.{name}").s
    m["data_io.bytes_read"] = file_bytes(["data_io.read_csv_1d"])
    m["data_io.bytes_written"] = file_bytes(DATA_WRITES)
    m["signals.add_noise.s"] = st("signals.add_noise").s
    m["signals.compute_metrics.s"] = st("signals.compute_metrics").s
    m["experiments.run_experiment.self_s"] = st("experiments.run_experiment").self_s
    m["cli.main.self_s"] = st("cli.main").self_s
    return m


def run(args) -> dict:
    L = import_lapden()
    import numpy
    import scipy
    from tracer import Tracer

    spec = (SMOKE if args.smoke else FULL)[args.workload]
    calls = make_calls(L, args.workload, args.seed, spec, args.workdir)
    tracer = Tracer()
    for caller, attr, layer, method in SOLVERS:
        tracer.install(caller, attr, layer, capture=method)
    if args.trace:
        for caller, attr, layer, kwargs in LAYERS:
            tracer.install(caller, attr, layer, **kwargs)

    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    call_s = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        tracer.context = i
        c0 = time.perf_counter()
        try:
            call.result = call.run()
        except Exception as err:  # counted as a failure below, never dropped
            call.error = repr(err)
        call_s.append(time.perf_counter() - c0)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    recs, problems, missing = [], [], 0
    for i, call in enumerate(calls):
        solves = [s for s in tracer.solves if s["context"] == i]
        call_recs = [certify(L, s, call.clean) for s in solves]
        for s, rec in zip(solves, call_recs):
            rec["u"] = s["result"][0].values.tolist() if s["result"] else None
        if len(solves) != call.expected_solves:
            problems.append(f"{call.label}: {len(solves)} solves, "
                            f"expected {call.expected_solves}")
            missing += max(0, call.expected_solves - len(solves))
        problems += check_outputs(call, call_recs)
        recs += call_recs
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "call_s": call_s,
        "nlap_s": sum(r["seconds"] for r in recs if r["method"] == "nlap"),
        "tv_s": sum(r["seconds"] for r in recs if r["method"] == "tv"),
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(c.expected_solves for c in calls),
        "failed": sum(not r["ok"] for r in recs) + missing,
        "problems": problems,
        "hashes": hash_artifacts(args.workdir / "out"),
        "absent": tracer.absent,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, recs)
    for rec in recs:
        rec.pop("u")
    result["solves"] = recs
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FULL), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
