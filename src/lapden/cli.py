"""Command-line interface: denoising, the TV baseline, and experiments.

Exit codes: 0 success, 2 parameter or input error, 3 divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import DivergenceError
from .data_io import PlotSpec, read_csv_1d, read_pgm, write_csv_1d, write_pgm, \
    write_svg_plot
from .experiments import EXPERIMENT_NAMES, NOISY_COLOR, RESTORED_COLOR, \
    report_row, run_experiment
from .nl_filter import FilterParams, denoise_1d, denoise_2d
from .signals import compute_metrics, default_plateau_tau
from .tv_baseline import TvParams, tv_denoise_1d, tv_denoise_2d


def _dt_value(text: str):
    # FilterParams validates the value
    return None if text == "auto" else float(text)


def _add_common_flags(sub, tv: bool):
    sub.add_argument("--input", type=Path, required=True)
    sub.add_argument("--output", type=Path, default=None)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="fixed fidelity weight, > 0 (default 1.0)")
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
                              "instead")
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


DENOISE_COMMANDS = (
    ("denoise1d", "denoise a 1D CSV signal"),
    ("denoise2d", "denoise a 2D PGM image"),
    ("tv1d", "TV-denoise a 1D CSV signal"),
    ("tv2d", "TV-denoise a 2D PGM image"),
)


COMMANDS = tuple(name for name, _ in DENOISE_COMMANDS) + ("experiment",)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given one of COMMANDS, a parser that
    holds only that command's subparser and parses its arguments alike."""
    parser = argparse.ArgumentParser(
        prog="lapden",
        description="Nonlinear Laplacian denoising with a TV baseline.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for command, help_text in DENOISE_COMMANDS:
        if only not in (None, command):
            continue
        sub = subs.add_parser(command, help=help_text)
        _add_common_flags(sub, tv=command.startswith("tv"))
        if command == "denoise2d":
            sub.add_argument("--warm-start", type=Path, default=None,
                             help="PGM used as the initial state instead of "
                                  "the input")
        sub.set_defaults(func=cmd_denoise)

    if only in (None, "experiment"):
        ex = subs.add_parser("experiment",
                             help="run a figure-reproduction experiment")
        ex.add_argument("name", choices=EXPERIMENT_NAMES)
        ex.add_argument("--seed", type=int, default=42)
        ex.add_argument("--n", type=int, default=None,
                        help="grid size (default 100 in 1D, 64 in 2D)")
        ex.add_argument("--outdir", type=Path, default=Path("."))
        ex.set_defaults(func=cmd_experiment)

    return parser


def cmd_denoise(args) -> int:
    """denoise1d, denoise2d, tv1d and tv2d: the command name picks the file
    format (CSV in 1D, PGM in 2D) and the method."""
    command = args.command
    one_d = command.endswith("1d")
    # every reader, writer and solver is looked up by name at call time, so
    # it can be wrapped
    read = read_csv_1d if one_d else read_pgm
    noisy = read(args.input)
    # the clean file and the output paths are checked before the solve, so
    # that a rejected run leaves no output
    for path in filter(None, (args.output, args.plot, args.report)):
        if not path.parent.is_dir():
            raise ValueError(f"no such directory: {path.parent}")
        if path.is_dir():
            raise ValueError(f"is a directory: {path}")
    metrics_noisy = metrics_restored = None
    if args.clean is not None:
        clean = read(args.clean)
        tau = default_plateau_tau(clean)
        metrics_noisy = compute_metrics(noisy, clean, tau)
    kwargs = {}
    if command == "denoise2d" and args.warm_start is not None:
        kwargs["warm_start"] = read_pgm(args.warm_start)
    if command.startswith("tv"):
        params = TvParams(lam=args.lam, beta=args.beta, max_iters=args.iters,
                          tol=args.tol)
        solve = tv_denoise_1d if one_d else tv_denoise_2d
    else:
        params = FilterParams(lam=args.lam, epsilon=args.epsilon, p=args.p,
                              dt=args.dt, max_iters=args.iters, tol=args.tol,
                              target_delta=args.delta)
        solve = denoise_1d if one_d else denoise_2d
    restored, trace = solve(noisy, params, **kwargs)

    artifacts = []
    if args.output is not None:
        (write_csv_1d if one_d else write_pgm)(args.output, restored)
        artifacts.append(args.output)
    if args.plot is not None:
        # a 2D plot shows the middle row
        mid, label = (slice(None), "") if one_d else (noisy.rows // 2, " (middle row)")
        write_svg_plot(args.plot, PlotSpec(640, 420, (
            ("noisy" + label, NOISY_COLOR, noisy.values[mid]),
            ("restored" + label, RESTORED_COLOR, restored.values[mid]),
        )))
        artifacts.append(args.plot)
    if args.clean is not None:
        metrics_restored = compute_metrics(restored, clean, tau)
    if args.report is not None:
        row = report_row(command, params, metrics_noisy, metrics_restored,
                         trace, artifacts)
        args.report.write_text(json.dumps(row, sort_keys=True) + "\n",
                               encoding="utf-8")
    if trace.converged:
        line = f"{command}: converged after {trace.iters_run} iterations"
    else:  # the cap, --iters, counts corrections: one fewer than the checks
        line = (f"{command}: stopped at the iteration cap after "
                f"{trace.iters_run - 1} corrections")
    if metrics_restored is not None:
        line += (f"; rel_err {metrics_noisy.rel_err:.4g} -> "
                 f"{metrics_restored.rel_err:.4g}")
    print(line)
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), building one subparser where it can.

    The top level takes no option but -h, so a first argument that names a
    command always selects that command's subparser; the others are not
    built. Arguments that subparser does not recognise are parsed again by
    the full parser, whose error message shows the full usage.
    """
    if argv and argv[0] in COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv)
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
