"""Command-line interface: denoising, the TV baseline, and experiments.

Exit codes: 0 success, 2 parameter or input error, 3 divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .core import DivergenceError
from .data_io import PlotSpec, read_csv_1d, read_pgm, write_csv_1d, write_pgm, \
    write_svg_plot
from .experiments import EXPERIMENT_NAMES, NOISY_COLOR, RESTORED_COLOR, \
    params_dict, run_experiment, trace_summary
from .nl_filter import FilterParams, denoise_1d, denoise_2d
from .signals import compute_metrics, default_plateau_tau
from .tv_baseline import TvParams, tv_denoise_1d, tv_denoise_2d


def _dt_value(text: str):
    if text == "auto":
        return None
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"dt must be positive, got {text}")
    return value


def _add_common_flags(sub, tv: bool):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="fixed fidelity weight (default 1.0)")
    if not tv:
        group.add_argument("--delta", type=float, default=None,
                           help="known noise norm; drives adaptive lambda")
        sub.add_argument("--epsilon", type=float, default=1e-2,
                         help="flux regularizer (default 1e-2)")
        sub.add_argument("--p", type=float, default=0.5,
                         help="flux exponent >= 0.5 (default 0.5)")
        sub.add_argument("--dt", type=_dt_value, default=None, metavar="DT|auto",
                         help="explicit-Euler time step; 'auto' (default) "
                              "solves the equilibrium by lagged diffusivity "
                              "instead, except with --lambda 0, where it "
                              "picks a stable step")
    else:
        sub.add_argument("--beta", type=float, default=1e-6,
                         help="gradient regularizer (default 1e-6)")
    sub.add_argument("--tol", type=float, default=1e-6,
                     help="stationarity tolerance: stop once the residual "
                          "is at most 10*tol*lambda*||u - u0|| (default 1e-6)")
    sub.add_argument("--iters", type=int, default=200_000,
                     help="cap on the corrections (iterations) taken "
                          "(default 200000)")
    sub.add_argument("--plot", type=Path, default=None,
                     help="write an SVG of noisy vs restored")
    sub.add_argument("--report", type=Path, default=None,
                     help="write a JSON-lines run report")
    sub.add_argument("--clean", type=Path, default=None,
                     help="clean reference file; enables quality metrics")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapden",
        description="Nonlinear Laplacian denoising with a TV baseline.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    d1 = subs.add_parser("denoise1d", help="denoise a 1D CSV signal")
    d1.add_argument("--input", type=Path, required=True)
    d1.add_argument("--output", type=Path, default=None)
    _add_common_flags(d1, tv=False)
    d1.set_defaults(func=cmd_denoise1d)

    d2 = subs.add_parser("denoise2d", help="denoise a 2D PGM image")
    d2.add_argument("--input", type=Path, required=True)
    d2.add_argument("--output", type=Path, default=None)
    _add_common_flags(d2, tv=False)
    d2.add_argument("--warm-start", type=Path, default=None,
                    help="PGM used as the initial state instead of the input")
    d2.set_defaults(func=cmd_denoise2d)

    t1 = subs.add_parser("tv1d", help="TV-denoise a 1D CSV signal")
    t1.add_argument("--input", type=Path, required=True)
    t1.add_argument("--output", type=Path, default=None)
    _add_common_flags(t1, tv=True)
    t1.set_defaults(func=cmd_tv1d)

    t2 = subs.add_parser("tv2d", help="TV-denoise a 2D PGM image")
    t2.add_argument("--input", type=Path, required=True)
    t2.add_argument("--output", type=Path, default=None)
    _add_common_flags(t2, tv=True)
    t2.set_defaults(func=cmd_tv2d)

    ex = subs.add_parser("experiment", help="run a figure-reproduction experiment")
    ex.add_argument("name", choices=EXPERIMENT_NAMES)
    ex.add_argument("--seed", type=int, default=42)
    ex.add_argument("--n", type=int, default=None,
                    help="grid size (default 100 in 1D, 64 in 2D)")
    ex.add_argument("--outdir", type=Path, default=Path("."))
    ex.set_defaults(func=cmd_experiment)

    return parser


def _filter_params(args) -> FilterParams:
    kwargs = dict(
        epsilon=args.epsilon,
        p=args.p,
        dt=args.dt,
        max_iters=args.iters,
        tol=args.tol,
    )
    if args.delta is not None:
        kwargs["target_delta"] = args.delta
    elif args.lam is not None:
        kwargs["lam"] = args.lam
    return FilterParams(**kwargs)


def _tv_params(args) -> TvParams:
    return TvParams(
        lam=1.0 if args.lam is None else args.lam,
        beta=args.beta,
        max_iters=args.iters,
        tol=args.tol,
    )


def _emit(args, command: str, params, noisy, restored, trace,
          clean, artifacts) -> None:
    metrics_noisy = metrics_restored = None
    if clean is not None:
        tau = default_plateau_tau(clean)
        metrics_noisy = asdict(compute_metrics(noisy, clean, tau))
        metrics_restored = asdict(compute_metrics(restored, clean, tau))
    if args.report is not None:
        row = {
            "command": command,
            "params": params_dict(params),
            "metrics_noisy": metrics_noisy,
            "metrics_restored": metrics_restored,
            "trace_summary": trace_summary(trace),
            "artifact_paths": [str(p) for p in artifacts],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if trace.converged:
        line = f"{command}: converged after {trace.iters_run} iterations"
    else:  # the cap, --iters, counts corrections: one fewer than the checks
        line = (f"{command}: stopped at the iteration cap after "
                f"{trace.iters_run - 1} corrections")
    if metrics_restored is not None:
        line += (f"; rel_err {metrics_noisy['rel_err']:.4g} -> "
                 f"{metrics_restored['rel_err']:.4g}")
    print(line)


def cmd_denoise1d(args) -> int:
    noisy = read_csv_1d(args.input)
    params = _filter_params(args)
    restored, trace = denoise_1d(noisy, params)
    return _finish_1d(args, "denoise1d", params, noisy, restored, trace)


def cmd_tv1d(args) -> int:
    noisy = read_csv_1d(args.input)
    params = _tv_params(args)
    restored, trace = tv_denoise_1d(noisy, params)
    return _finish_1d(args, "tv1d", params, noisy, restored, trace)


def _finish_1d(args, command, params, noisy, restored, trace) -> int:
    artifacts = []
    if args.output is not None:
        write_csv_1d(args.output, restored)
        artifacts.append(args.output)
    if args.plot is not None:
        write_svg_plot(args.plot, PlotSpec(640, 420, (
            ("noisy", NOISY_COLOR, noisy.values),
            ("restored", RESTORED_COLOR, restored.values),
        )))
        artifacts.append(args.plot)
    clean = read_csv_1d(args.clean) if args.clean is not None else None
    _emit(args, command, params, noisy, restored, trace, clean, artifacts)
    return 0


def cmd_denoise2d(args) -> int:
    noisy = read_pgm(args.input)
    warm = read_pgm(args.warm_start) if args.warm_start is not None else None
    params = _filter_params(args)
    restored, trace = denoise_2d(noisy, params, warm_start=warm)
    return _finish_2d(args, "denoise2d", params, noisy, restored, trace)


def cmd_tv2d(args) -> int:
    noisy = read_pgm(args.input)
    params = _tv_params(args)
    restored, trace = tv_denoise_2d(noisy, params)
    return _finish_2d(args, "tv2d", params, noisy, restored, trace)


def _finish_2d(args, command, params, noisy, restored, trace) -> int:
    artifacts = []
    if args.output is not None:
        write_pgm(args.output, restored)
        artifacts.append(args.output)
    if args.plot is not None:
        mid = noisy.rows // 2
        write_svg_plot(args.plot, PlotSpec(640, 420, (
            ("noisy (middle row)", NOISY_COLOR, noisy.values[mid]),
            ("restored (middle row)", RESTORED_COLOR, restored.values[mid]),
        )))
        artifacts.append(args.plot)
    clean = read_pgm(args.clean) if args.clean is not None else None
    _emit(args, command, params, noisy, restored, trace, clean, artifacts)
    return 0


def cmd_experiment(args) -> int:
    rows = run_experiment(args.name, args.seed, args.n, args.outdir)
    report_path = Path(args.outdir) / f"{args.name}_report_{args.seed}.jsonl"
    with open(report_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    for row in rows:
        summary = row.get("trace_summary")
        restored = row.get("metrics_restored")
        line = f"{row['command']} [{row['method']}]"
        if restored is not None:
            line += (f": rel_err {row['metrics_noisy']['rel_err']:.4g} -> "
                     f"{restored['rel_err']:.4g}")
            if summary:
                line += (f" ({summary['iters']} iters, "
                         f"{'converged' if summary['converged'] else 'cap hit'})")
        else:
            line += f": noisy rel_err {row['metrics_noisy']['rel_err']:.4g}"
        print(line)
    print(f"report: {report_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
