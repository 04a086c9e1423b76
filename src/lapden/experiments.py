"""Figure-reproduction experiments: seeded data, both methods, artifacts.

Every experiment is a pure function of (name, seed, n); artifacts (CSV, PGM,
SVG) are byte-identical across repeated invocations.  The report rows record
the tuned parameters actually used, per-method metrics, and trace summaries.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .core import Field2D, RunTrace
from .data_io import PlotSpec, write_csv_1d, write_pgm, write_svg_plot
from .nl_filter import FilterParams, denoise_1d, denoise_2d
from .signals import NoiseSpec, add_noise, compute_metrics, default_plateau_tau, \
    sample_f2d, sample_f_sine, sample_g_jumps
from .tv_baseline import TvParams, tv_denoise_1d, tv_denoise_2d

EXPERIMENT_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")

DEFAULT_N_1D = 100
DEFAULT_N_2D = 64
DELTA_REL_1D = 0.09
DELTA_REL_2D = 0.05

# method parameters tuned on the default seed; recorded in every report row
NLAP_1D = FilterParams(epsilon=1e-2, p=0.5, tol=1e-6, max_iters=200_000)
NLAP_2D = FilterParams(epsilon=1e-2, p=0.5, tol=1e-6, max_iters=200_000)
TV_1D = TvParams(lam=3.0, beta=1e-6, tol=1e-6, max_iters=400_000)
TV_2D = TvParams(lam=10.0, beta=1e-6, tol=1e-6, max_iters=400_000)

NOISY_COLOR = "#d62728"
RESTORED_COLOR = "#1f77b4"
CLEAN_COLOR = "#333333"


def preserved_jump_count(values: np.ndarray, jump_nodes, height: float,
                         window: int = 3) -> int:
    """How many expected jump locations survive in a restored signal.

    A jump at node i counts as preserved when some centered two-step
    difference |u[j+1] - u[j-1]| within ``window`` nodes of i exceeds half
    the jump height.  (Sampled jumps carry a midpoint value at the exact
    jump node, so single first differences see only half the rise.)
    """
    centered = np.abs(values[2:] - values[:-2])
    count = 0
    for j in jump_nodes:
        lo = max(j - 1 - window, 0)
        hi = min(j - 1 + window + 1, centered.size)
        if hi > lo and centered[lo:hi].max() > 0.5 * height:
            count += 1
    return count


def trace_summary(trace: RunTrace) -> dict:
    """The trace fields a JSON-lines report row records."""
    return {
        "iters": trace.iters_run,
        "converged": trace.converged,
        "dt_used": trace.dt_used,
        "wall_seconds": trace.wall_seconds,
    }


def params_dict(params) -> dict:
    """A FilterParams or TvParams as a JSON-ready dict, without
    FilterParams.solver, which selects nothing."""
    d = asdict(params)
    d.pop("solver", None)
    return d


def _report_row(name: str, method: str, seed: int, n: int, params,
                metrics_noisy, metrics_restored, trace, artifacts,
                extra: dict | None = None) -> dict:
    row = {
        "command": f"experiment:{name}",
        "method": method,
        "seed": seed,
        "n": n,
        "params": params_dict(params) if params is not None else {},
        "metrics_noisy": asdict(metrics_noisy),
        "metrics_restored": asdict(metrics_restored) if metrics_restored else None,
        "trace_summary": trace_summary(trace) if trace else None,
        "artifact_paths": [str(p) for p in artifacts],
    }
    if extra:
        row.update(extra)
    return row


def _plot_1d(path, title: str, series) -> None:
    write_svg_plot(path, PlotSpec(640, 420, tuple(series), title=title))


def _field_to_unit(values: np.ndarray) -> np.ndarray:
    # fixed affine map [-1, 1] -> [0, 1]; the test surface lives in [-1, 1]
    return (values + 1.0) / 2.0


def _write_field_pgm(path, field: Field2D) -> None:
    write_pgm(path, field.with_values(_field_to_unit(field.values)))


def _instance(sample, delta_rel: float, n: int, seed: int, outdir: Path):
    clean = sample(n)
    noisy = add_noise(clean, NoiseSpec(seed=seed, delta_rel=delta_rel))
    delta = float(np.linalg.norm(noisy.values - clean.values))
    outdir.mkdir(parents=True, exist_ok=True)  # only once the size passed
    return clean, noisy, delta


def _run_fig1(seed: int, n: int, outdir: Path) -> list[dict]:
    rows = []
    for tag, sampler in (("f", sample_f_sine), ("g", sample_g_jumps)):
        clean, noisy, _ = _instance(sampler, DELTA_REL_1D, n, seed, outdir)
        tau = default_plateau_tau(clean)
        paths = [
            outdir / f"fig1_{tag}-clean_{seed}.csv",
            outdir / f"fig1_{tag}-noisy_{seed}.csv",
            outdir / f"fig1_{tag}_{seed}.svg",
        ]
        write_csv_1d(paths[0], clean)
        write_csv_1d(paths[1], noisy)
        _plot_1d(paths[2], f"original and noisy {tag}", [
            ("clean", CLEAN_COLOR, clean.values),
            ("noisy", NOISY_COLOR, noisy.values),
        ])
        rows.append(_report_row(
            "fig1", tag, seed, n, None,
            compute_metrics(noisy, clean, tau), None, None, paths,
        ))
    return rows


def _run_1d_comparison(name: str, sampler, seed: int, n: int,
                       outdir: Path) -> list[dict]:
    clean, noisy, delta = _instance(sampler, DELTA_REL_1D, n, seed, outdir)
    tau = default_plateau_tau(clean)
    noisy_metrics = compute_metrics(noisy, clean, tau)
    nlap_params = replace(NLAP_1D, target_delta=delta)

    u_nl, tr_nl = denoise_1d(noisy, nlap_params)
    u_tv, tr_tv = tv_denoise_1d(noisy, TV_1D)

    base = [outdir / f"{name}_clean_{seed}.csv", outdir / f"{name}_noisy_{seed}.csv"]
    write_csv_1d(base[0], clean)
    write_csv_1d(base[1], noisy)

    rows = []
    jump_nodes = [n // 5, 2 * n // 5, 3 * n // 5, 4 * n // 5] if name == "fig3" else None
    for method, params, u, tr in (
        ("nlap", nlap_params, u_nl, tr_nl),
        ("tv", TV_1D, u_tv, tr_tv),
    ):
        csv_path = outdir / f"{name}_{method}_{seed}.csv"
        svg_path = outdir / f"{name}_{method}_{seed}.svg"
        write_csv_1d(csv_path, u)
        _plot_1d(svg_path, f"{name}: noisy and {method} restoration", [
            ("noisy", NOISY_COLOR, noisy.values),
            (method, RESTORED_COLOR, u.values),
        ])
        extra = {}
        if jump_nodes is not None:
            extra["jumps_preserved"] = preserved_jump_count(u.values, jump_nodes, 2.0)
        rows.append(_report_row(
            name, method, seed, n, params, noisy_metrics,
            compute_metrics(u, clean, tau), tr, base + [csv_path, svg_path],
            extra,
        ))
    return rows


def _run_fig4(seed: int, n: int, outdir: Path) -> list[dict]:
    clean, noisy, _ = _instance(sample_f2d, DELTA_REL_2D, n, seed, outdir)
    tau = default_plateau_tau(clean)
    paths = [outdir / f"fig4_clean_{seed}.pgm", outdir / f"fig4_noisy_{seed}.pgm"]
    _write_field_pgm(paths[0], clean)
    _write_field_pgm(paths[1], noisy)
    return [_report_row(
        "fig4", "data", seed, n, None,
        compute_metrics(noisy, clean, tau), None, None, paths,
    )]


def _run_fig5(seed: int, n: int, outdir: Path) -> list[dict]:
    clean, noisy, delta = _instance(sample_f2d, DELTA_REL_2D, n, seed, outdir)
    tau = default_plateau_tau(clean)
    noisy_metrics = compute_metrics(noisy, clean, tau)
    nlap_params = replace(NLAP_2D, target_delta=delta)

    u_nl, tr_nl = denoise_2d(noisy, nlap_params)
    u_tv, tr_tv = tv_denoise_2d(noisy, TV_2D)

    base = [outdir / f"fig5_clean_{seed}.pgm", outdir / f"fig5_noisy_{seed}.pgm"]
    _write_field_pgm(base[0], clean)
    _write_field_pgm(base[1], noisy)

    rows = []
    for method, params, u, tr in (
        ("nlap", nlap_params, u_nl, tr_nl),
        ("tv", TV_2D, u_tv, tr_tv),
    ):
        pgm_path = outdir / f"fig5_{method}_{seed}.pgm"
        _write_field_pgm(pgm_path, u)
        rows.append(_report_row(
            "fig5", method, seed, n, params, noisy_metrics,
            compute_metrics(u, clean, tau), tr, base + [pgm_path],
        ))
    return rows


def run_experiment(name: str, seed: int, n: int | None, outdir) -> list[dict]:
    """Run one named experiment; returns the report rows."""
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}, expected one of "
                         f"{', '.join(EXPERIMENT_NAMES)}")
    outdir = Path(outdir)
    if n is None:
        n = DEFAULT_N_1D if name in ("fig1", "fig2", "fig3") else DEFAULT_N_2D
    if name == "fig1":
        return _run_fig1(seed, n, outdir)
    if name == "fig2":
        return _run_1d_comparison("fig2", sample_f_sine, seed, n, outdir)
    if name == "fig3":
        return _run_1d_comparison("fig3", sample_g_jumps, seed, n, outdir)
    if name == "fig4":
        return _run_fig4(seed, n, outdir)
    return _run_fig5(seed, n, outdir)
