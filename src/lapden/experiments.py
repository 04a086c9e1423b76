"""Figure-reproduction experiments: seeded data, both methods, artifacts.

Every experiment is a pure function of (name, seed, n); artifacts (CSV, PGM,
SVG) are byte-identical across repeated invocations.  The report rows record
the tuned parameters actually used, per-method metrics, and trace summaries.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .core import Field2D
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
TV_1D = TvParams(lam=3.0, beta=1e-6, tol=1e-6, max_iters=1_000)
TV_2D = TvParams(lam=10.0, beta=1e-6, tol=1e-6, max_iters=1_000)

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


def report_row(command: str, params, metrics_noisy, metrics_restored, trace,
               artifacts, **extra) -> dict:
    """One JSON-lines report row, shared by the CLI and the experiments.

    ``params`` (FilterParams or TvParams), the metrics and the trace may be
    None.  FilterParams.solver, which selects nothing, is left out; ``extra``
    adds keys such as an experiment's method and seed.
    """
    return {
        "command": command,
        "params": {} if params is None else
                  {k: v for k, v in asdict(params).items() if k != "solver"},
        "metrics_noisy": None if metrics_noisy is None else asdict(metrics_noisy),
        "metrics_restored":
            None if metrics_restored is None else asdict(metrics_restored),
        "trace_summary": None if trace is None else {
            "iters": trace.iters_run,
            "converged": trace.converged,
            "dt_used": trace.dt_used,
            "wall_seconds": trace.wall_seconds,
        },
        "artifact_paths": [str(p) for p in artifacts],
        **extra,
    }


def _plot_1d(path, title: str, series) -> None:
    write_svg_plot(path, PlotSpec(640, 420, tuple(series), title=title))


def _write(path, u) -> None:
    """Write a Signal1D as CSV, or a Field2D as PGM."""
    if isinstance(u, Field2D):
        # fixed affine map [-1, 1] -> [0, 1]; the test surface lives in [-1, 1]
        write_pgm(path, u.with_values((u.values + 1.0) / 2.0))
    else:
        write_csv_1d(path, u)


def _instance(sample, n: int, seed: int):
    clean = sample(n)
    delta_rel = DELTA_REL_1D if clean.values.ndim == 1 else DELTA_REL_2D
    noisy = add_noise(clean, NoiseSpec(seed=seed, delta_rel=delta_rel))
    return clean, noisy, float(np.linalg.norm(noisy.values - clean.values))


def _write_data(outdir: Path, stem: str, ext: str, seed: int,
                clean, noisy) -> list[Path]:
    # the first write of every experiment: the outdir appears only once
    # all of its data were built, so a rejected size leaves nothing behind
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{stem}{kind}_{seed}.{ext}" for kind in ("clean", "noisy")]
    _write(paths[0], clean)
    _write(paths[1], noisy)
    return paths


def _run_fig1(seed: int, n: int, outdir: Path) -> list[dict]:
    # both instances before any write: the jump signal rejects sizes the
    # sine accepts
    instances = [(tag, *_instance(sampler, n, seed))
                 for tag, sampler in (("f", sample_f_sine), ("g", sample_g_jumps))]
    rows = []
    for tag, clean, noisy, _ in instances:
        paths = _write_data(outdir, f"fig1_{tag}-", "csv", seed, clean, noisy)
        paths.append(outdir / f"fig1_{tag}_{seed}.svg")
        _plot_1d(paths[2], f"original and noisy {tag}", [
            ("clean", CLEAN_COLOR, clean.values),
            ("noisy", NOISY_COLOR, noisy.values),
        ])
        rows.append(report_row(
            "experiment:fig1", None,
            compute_metrics(noisy, clean, default_plateau_tau(clean)),
            None, None, paths, method=tag, seed=seed, n=n,
        ))
    return rows


def _run_fig4(seed: int, n: int, outdir: Path) -> list[dict]:
    clean, noisy, _ = _instance(sample_f2d, n, seed)
    paths = _write_data(outdir, "fig4_", "pgm", seed, clean, noisy)
    return [report_row(
        "experiment:fig4", None,
        compute_metrics(noisy, clean, default_plateau_tau(clean)),
        None, None, paths, method="data", seed=seed, n=n,
    )]


def _run_comparison(name: str, sampler, seed: int, n: int,
                    outdir: Path) -> list[dict]:
    """Both methods on one noisy instance: CSV and SVG artifacts in 1D, PGM
    in 2D."""
    clean, noisy, delta = _instance(sampler, n, seed)
    one_d = clean.values.ndim == 1
    tau = default_plateau_tau(clean)
    noisy_metrics = compute_metrics(noisy, clean, tau)
    nlap = replace(NLAP_1D if one_d else NLAP_2D, target_delta=delta)
    tv = TV_1D if one_d else TV_2D
    # the solvers are looked up by name at call time, so they can be wrapped
    runs = [("nlap", nlap, *(denoise_1d if one_d else denoise_2d)(noisy, nlap)),
            ("tv", tv, *(tv_denoise_1d if one_d else tv_denoise_2d)(noisy, tv))]
    ext = "csv" if one_d else "pgm"
    base = _write_data(outdir, f"{name}_", ext, seed, clean, noisy)
    rows = []
    for method, params, u, tr in runs:
        paths = [outdir / f"{name}_{method}_{seed}.{ext}"]
        _write(paths[0], u)
        if one_d:
            paths.append(outdir / f"{name}_{method}_{seed}.svg")
            _plot_1d(paths[1], f"{name}: noisy and {method} restoration", [
                ("noisy", NOISY_COLOR, noisy.values),
                (method, RESTORED_COLOR, u.values),
            ])
        extra = {}
        if name == "fig3":  # four jumps of height 2, at the nodes k*n//5
            extra["jumps_preserved"] = preserved_jump_count(
                u.values, [k * n // 5 for k in (1, 2, 3, 4)], 2.0)
        rows.append(report_row(
            f"experiment:{name}", params, noisy_metrics,
            compute_metrics(u, clean, tau), tr, base + paths,
            method=method, seed=seed, n=n, **extra,
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
    if name == "fig4":
        return _run_fig4(seed, n, outdir)
    sampler = {"fig2": sample_f_sine, "fig3": sample_g_jumps, "fig5": sample_f2d}[name]
    return _run_comparison(name, sampler, seed, n, outdir)
