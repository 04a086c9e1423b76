import json

import numpy as np
import pytest

from lapden import (
    Field2D,
    FilterParams,
    NoiseSpec,
    Signal1D,
    TvParams,
    add_noise,
    denoise_1d,
    denoise_2d,
    read_csv_1d,
    read_pgm,
    sample_f_sine,
    tv_denoise_1d,
    tv_denoise_2d,
    write_csv_1d,
    write_pgm,
)
import lapden.cli
from lapden.cli import build_parser, main


@pytest.fixture
def constant_csv(tmp_path):
    path = tmp_path / "const.csv"
    write_csv_1d(path, Signal1D(np.full(20, 2.5)))
    return path


@pytest.fixture
def sine_files(tmp_path):
    clean = sample_f_sine(100)
    noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.09))
    clean_path = tmp_path / "clean.csv"
    noisy_path = tmp_path / "noisy.csv"
    write_csv_1d(clean_path, clean)
    write_csv_1d(noisy_path, noisy)
    return clean_path, noisy_path


class TestDenoise1D:
    def test_constant_input_round_trips(self, constant_csv, tmp_path):
        # --dt takes explicit Euler steps
        out = tmp_path / "out.csv"
        report = tmp_path / "report.jsonl"
        code = main(["denoise1d", "--input", str(constant_csv),
                     "--output", str(out), "--report", str(report),
                     "--dt", "0.01"])
        assert code == 0
        assert np.array_equal(read_csv_1d(out).values,
                              read_csv_1d(constant_csv).values)
        row = json.loads(report.read_text())
        assert row["trace_summary"]["converged"] is True
        assert row["trace_summary"]["iters"] == 1
        assert row["trace_summary"]["dt_used"] is not None

    def test_constant_input_semi_implicit(self, constant_csv, tmp_path):
        # the default path, lagged diffusivity, certifies a constant at its
        # first check
        out = tmp_path / "out.csv"
        report = tmp_path / "report.jsonl"
        code = main(["denoise1d", "--input", str(constant_csv),
                     "--output", str(out), "--report", str(report)])
        assert code == 0
        assert np.allclose(read_csv_1d(out).values,
                           read_csv_1d(constant_csv).values,
                           rtol=0, atol=1e-12)
        row = json.loads(report.read_text())
        assert row["trace_summary"]["converged"] is True
        assert row["trace_summary"]["iters"] == 1
        assert row["trace_summary"]["dt_used"] is None

    def test_sine_run_with_metrics(self, sine_files, tmp_path):
        clean_path, noisy_path = sine_files
        out = tmp_path / "restored.csv"
        plot = tmp_path / "plot.svg"
        report = tmp_path / "report.jsonl"
        delta = 0.09 * float(np.linalg.norm(read_csv_1d(clean_path).values))
        code = main(["denoise1d", "--input", str(noisy_path),
                     "--output", str(out), "--plot", str(plot),
                     "--report", str(report), "--clean", str(clean_path),
                     "--delta", repr(delta)])
        assert code == 0
        row = json.loads(report.read_text())
        assert row["metrics_restored"]["rel_err"] < 0.09
        assert row["metrics_noisy"]["rel_err"] == pytest.approx(0.09, abs=1e-9)
        assert plot.read_text().count("<polyline") == 2

    def test_lambda_and_delta_conflict(self, constant_csv):
        code = main(["denoise1d", "--input", str(constant_csv),
                     "--lambda", "1.0", "--delta", "0.5"])
        assert code == 2

    def test_missing_input_file(self, tmp_path):
        code = main(["denoise1d", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

    @pytest.mark.parametrize("command", ["denoise1d", "tv1d"])
    @pytest.mark.parametrize("clean", ["missing", "short", "report-dir"])
    def test_rejected_clean_file_leaves_no_output(self, sine_files, tmp_path,
                                                  command, clean, capsys):
        # report-dir: a good clean file, but a --report in a missing directory
        clean_path, noisy_path = sine_files
        out, plot, report = (tmp_path / name for name in ("o.csv", "o.svg", "o.jsonl"))
        if clean == "short":
            clean_path = tmp_path / "short.csv"
            write_csv_1d(clean_path, sample_f_sine(50))
        elif clean == "missing":
            clean_path = tmp_path / "nope.csv"
        else:
            report = tmp_path / "missing" / "r.jsonl"
        code = main([command, "--input", str(noisy_path), "--output", str(out),
                     "--plot", str(plot), "--report", str(report),
                     "--clean", str(clean_path)])
        assert code == 2
        assert not out.exists() and not plot.exists() and not report.exists()
        if clean == "report-dir":
            assert "no such directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["denoise1d", "tv1d"])
    @pytest.mark.parametrize("flag", ["--plot", "--report"])
    def test_output_path_naming_a_directory_leaves_no_output(
            self, sine_files, tmp_path, command, flag, capsys):
        _, noisy_path = sine_files
        out, taken = tmp_path / "out.csv", tmp_path / "taken"
        taken.mkdir()
        code = main([command, "--input", str(noisy_path), "--output", str(out),
                     flag, str(taken)])
        assert code == 2
        assert not out.exists()
        assert f"is a directory: {taken}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--epsilon", "inf"], ["--lambda", "nan"],
                                       ["--delta", "inf"], ["--tol", "nan"],
                                       ["--dt", "nan"]])
    def test_non_finite_parameter_rejected(self, constant_csv, flags, capsys):
        code = main(["denoise1d", "--input", str(constant_csv)] + flags)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_delta_with_infinite_square_rejected(self, sine_files, tmp_path,
                                                 capsys):
        _, noisy_path = sine_files
        out = tmp_path / "out.csv"
        code = main(["denoise1d", "--input", str(noisy_path),
                     "--output", str(out), "--delta", "1e300"])
        assert code == 2
        assert not out.exists()
        assert "its square must be finite" in capsys.readouterr().err

    def test_non_finite_sample_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1.0\n2.0\nnan\n1.5\n")
        code = main(["denoise1d", "--input", str(path)])
        assert code == 2
        assert "line 3: non-finite sample" in capsys.readouterr().err

    def test_non_finite_domain_rejected(self, tmp_path, capsys):
        path, out = tmp_path / "domain.csv", tmp_path / "out.csv"
        path.write_text("# h=1.0 a=nan b=4.0\n1.0\n2.0\n1.5\n")
        code = main(["denoise1d", "--input", str(path), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert "domain ends must be finite" in capsys.readouterr().err

    def test_divergence_exit_code(self, sine_files, tmp_path):
        _, noisy_path = sine_files
        code = main(["denoise1d", "--input", str(noisy_path),
                     "--dt", "1e9", "--iters", "500"])
        assert code == 3

    @pytest.mark.parametrize("command", ["denoise1d", "tv1d"])
    def test_cap_line_counts_corrections(self, sine_files, command, capsys):
        # the cap line names what --iters caps
        _, noisy_path = sine_files
        code = main([command, "--input", str(noisy_path), "--iters", "3"])
        assert code == 0
        assert capsys.readouterr().out == (
            f"{command}: stopped at the iteration cap after 3 corrections\n")


class TestTv1D:
    def test_runs_and_reports(self, sine_files, tmp_path):
        clean_path, noisy_path = sine_files
        report = tmp_path / "tv.jsonl"
        code = main(["tv1d", "--input", str(noisy_path), "--lambda", "3.0",
                     "--clean", str(clean_path), "--report", str(report)])
        assert code == 0
        row = json.loads(report.read_text())
        assert row["metrics_restored"]["rel_err"] < 0.09
        assert row["params"]["beta"] == 1e-6

    def test_delta_flag_rejected(self, sine_files):
        _, noisy_path = sine_files
        code = main(["tv1d", "--input", str(noisy_path), "--delta", "0.5"])
        assert code == 2

    def test_dt_flag_rejected(self, sine_files):
        _, noisy_path = sine_files
        code = main(["tv1d", "--input", str(noisy_path), "--dt", "0.1"])
        assert code == 2

    def test_zero_lambda_rejected(self, sine_files, capsys):
        _, noisy_path = sine_files
        code = main(["tv1d", "--input", str(noisy_path), "--lambda", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "lam" in err and "fidelity weight must be positive" in err

    @pytest.mark.parametrize("flags", [["--beta", "inf"], ["--lambda", "nan"]])
    def test_non_finite_parameter_rejected(self, constant_csv, flags, capsys):
        code = main(["tv1d", "--input", str(constant_csv)] + flags)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_non_finite_sample_rejected(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("1.0\ninf\n1.5\n")
        code = main(["tv1d", "--input", str(path)])
        assert code == 2
        assert "line 2: non-finite sample" in capsys.readouterr().err

    def test_report_has_no_time_step(self, constant_csv, tmp_path):
        report = tmp_path / "tv.jsonl"
        code = main(["tv1d", "--input", str(constant_csv),
                     "--report", str(report)])
        assert code == 0
        row = json.loads(report.read_text())
        assert row["trace_summary"]["dt_used"] is None
        assert row["trace_summary"]["iters"] == 1
        assert "dt" not in row["params"]


class TestDenoise2D:
    def test_constant_image_fixed_point(self, tmp_path):
        src = tmp_path / "grey.pgm"
        write_pgm(src, Field2D(np.full((8, 8), 0.5)))
        out = tmp_path / "out.pgm"
        code = main(["denoise2d", "--input", str(src), "--output", str(out)])
        assert code == 0
        assert np.array_equal(read_pgm(out).values, read_pgm(src).values)

    def test_bad_pgm_is_parameter_error(self, tmp_path):
        src = tmp_path / "broken.pgm"
        src.write_bytes(b"P9 not a pgm")
        code = main(["denoise2d", "--input", str(src)])
        assert code == 2

    def test_semi_implicit_choice_rejected(self, tmp_path):
        # there is no --solver flag: --dt alone chooses the path
        src = tmp_path / "grey.pgm"
        write_pgm(src, Field2D(np.full((8, 8), 0.5)))
        code = main(["denoise2d", "--input", str(src),
                     "--solver", "semi-implicit"])
        assert code == 2

    @pytest.mark.parametrize("flags, lagged", [
        ([], True), (["--delta", "0.1"], True), (["--dt", "auto"], True),
        (["--lambda", "2", "--dt", "0.01"], False), (["--dt", "0.01"], False)])
    def test_lagged_unless_zero_lambda_or_fixed_step(self, tmp_path, flags,
                                                     lagged):
        # --lambda 0 is rejected (test_zero_lambda_rejected_writes_nothing)
        src = tmp_path / "grey.pgm"
        write_pgm(src, Field2D(np.full((8, 8), 0.5)))
        report = tmp_path / "report.jsonl"
        code = main(["denoise2d", "--input", str(src), "--report", str(report)]
                    + flags)
        assert code == 0
        row = json.loads(report.read_text())
        assert (row["trace_summary"]["dt_used"] is None) == lagged

    def test_warm_start(self, tmp_path):
        rng = np.random.default_rng(51)
        noisy = Field2D(np.clip(0.5 + 0.1 * rng.normal(size=(12, 12)), 0, 1))
        src = tmp_path / "noisy.pgm"
        warm = tmp_path / "warm.pgm"
        write_pgm(src, noisy)
        write_pgm(warm, Field2D(np.full((12, 12), 0.5)))
        out = tmp_path / "out.pgm"
        code = main(["denoise2d", "--input", str(src), "--warm-start", str(warm),
                     "--output", str(out), "--iters", "50"])
        assert code == 0
        assert out.exists()


class TestTv2D:
    def test_runs(self, tmp_path):
        rng = np.random.default_rng(52)
        noisy = Field2D(np.clip(0.5 + 0.1 * rng.normal(size=(10, 10)), 0, 1))
        src = tmp_path / "noisy.pgm"
        write_pgm(src, noisy)
        out = tmp_path / "out.pgm"
        code = main(["tv2d", "--input", str(src), "--output", str(out),
                     "--lambda", "5.0", "--iters", "2000"])
        assert code == 0
        assert out.exists()


# command -> its flags and the library call they stand for
LIBRARY_CALLS = {
    "denoise1d": (["--delta", "0.5"], denoise_1d, FilterParams(target_delta=0.5)),
    "tv1d": (["--lambda", "3"], tv_denoise_1d, TvParams(lam=3.0)),
    "denoise2d": (["--lambda", "2"], denoise_2d, FilterParams(lam=2.0)),
    "tv2d": (["--lambda", "5"], tv_denoise_2d, TvParams(lam=5.0)),
}


@pytest.mark.parametrize("command", LIBRARY_CALLS)
def test_command_writes_what_the_library_returns(sine_files, tmp_path, command):
    flags, solve, params = LIBRARY_CALLS[command]
    one_d = command.endswith("1d")
    if one_d:
        src, read, write, ext = sine_files[1], read_csv_1d, write_csv_1d, "csv"
    else:
        rng = np.random.default_rng(53)
        src, read, write, ext = tmp_path / "noisy.pgm", read_pgm, write_pgm, "pgm"
        write_pgm(src, Field2D(np.clip(0.5 + 0.1 * rng.normal(size=(12, 10)), 0, 1)))
    kwargs = {}
    if command == "denoise2d":
        warm = tmp_path / "warm.pgm"
        write_pgm(warm, Field2D(np.full((12, 10), 0.5)))
        flags = flags + ["--warm-start", str(warm)]
        kwargs["warm_start"] = read_pgm(warm)
    out, expected = tmp_path / f"out.{ext}", tmp_path / f"expected.{ext}"
    report = tmp_path / "report.jsonl"
    code = main([command, "--input", str(src), "--output", str(out),
                 "--report", str(report)] + flags)
    assert code == 0
    u, trace = solve(read(src), params, **kwargs)
    write(expected, u)
    if one_d:
        assert np.array_equal(read_csv_1d(out).values, read_csv_1d(expected).values)
    else:
        assert out.read_bytes() == expected.read_bytes()
    summary = json.loads(report.read_text())["trace_summary"]
    assert summary["iters"] == trace.iters_run
    assert summary["converged"] == trace.converged


@pytest.mark.parametrize("args", [
    "denoise1d", "denoise1d --dt 0.01", "denoise2d", "denoise2d --dt 0.01",
    "tv1d", "tv2d"])
def test_zero_lambda_rejected_writes_nothing(sine_files, tmp_path, args, capsys):
    # at lambda = 0 nothing pulls the result toward the data
    command, *dt = args.split()
    if command.endswith("1d"):
        src, out = sine_files[1], tmp_path / "out.csv"
    else:
        src, out = tmp_path / "noisy.pgm", tmp_path / "out.pgm"
        write_pgm(src, Field2D(np.full((8, 8), 0.5)))
    code = main([command, "--input", str(src), "--output", str(out),
                 "--lambda", "0"] + dt)
    assert code == 2
    assert not out.exists()
    assert "fidelity weight must be positive" in capsys.readouterr().err


class TestExperiment:
    def test_unknown_name(self, tmp_path):
        code = main(["experiment", "fig9", "--outdir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("name", ["fig2", "fig5"])
    def test_zero_size_is_rejected(self, tmp_path, capsys, name):
        # n = 0 is a size like any other, not "use the default"
        code = main(["experiment", name, "--n", "0", "--outdir", str(tmp_path)])
        assert code == 2
        assert "need n >= 4, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name, n", [("fig2", 1), ("fig1", 5)])
    def test_rejected_size_leaves_no_outdir(self, tmp_path, name, n):
        # fig1 --n 5: the sine accepts n = 5, the jump signal does not
        outdir = tmp_path / "fresh"
        code = main(["experiment", name, "--n", str(n), "--outdir", str(outdir)])
        assert code == 2
        assert not outdir.exists()

    def test_fig1_writes_artifacts_and_report(self, tmp_path):
        code = main(["experiment", "fig1", "--seed", "7",
                     "--outdir", str(tmp_path)])
        assert code == 0
        rows = [json.loads(line)
                for line in (tmp_path / "fig1_report_7.jsonl").read_text().splitlines()]
        assert {row["method"] for row in rows} == {"f", "g"}
        for row in rows:
            for artifact in row["artifact_paths"]:
                assert (tmp_path / artifact.split("/")[-1]).exists()

    def test_fig4_pgm_artifacts(self, tmp_path):
        code = main(["experiment", "fig4", "--seed", "3", "--n", "32",
                     "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig4_clean_3.pgm").exists()
        assert (tmp_path / "fig4_noisy_3.pgm").exists()

    def test_fig3_reports_jump_preservation(self, tmp_path):
        code = main(["experiment", "fig3", "--seed", "5", "--n", "50",
                     "--outdir", str(tmp_path)])
        assert code == 0
        rows = [json.loads(line) for line in
                (tmp_path / "fig3_report_5.jsonl").read_text().splitlines()]
        by_method = {row["method"]: row for row in rows}
        assert by_method["nlap"]["jumps_preserved"] == 4
        for row in rows:
            noisy = row["metrics_noisy"]["rel_err"]
            assert row["metrics_restored"]["rel_err"] < noisy

    def test_fig5_small_grid_end_to_end(self, tmp_path):
        code = main(["experiment", "fig5", "--seed", "5", "--n", "24",
                     "--outdir", str(tmp_path)])
        assert code == 0
        rows = [json.loads(line) for line in
                (tmp_path / "fig5_report_5.jsonl").read_text().splitlines()]
        assert {row["method"] for row in rows} == {"nlap", "tv"}
        assert (tmp_path / "fig5_nlap_5.pgm").exists()
        assert (tmp_path / "fig5_tv_5.pgm").exists()


def test_help_exits_zero():
    assert main(["--help"]) == 0


# argument lists that end in help or a usage error; their first arguments
# name a command, name none, or are absent
_USAGE_ARGVS = [
    [], ["-h"], ["bogus"], ["-h", "denoise1d"],
    ["denoise1d", "-h"], ["denoise2d", "--help"], ["tv1d", "-h"],
    ["tv2d"], ["experiment", "-h"], ["experiment"], ["experiment", "fig9"],
    ["denoise1d", "--input"],
    ["denoise2d", "--input", "x.pgm", "--warm-start"],
    ["denoise1d", "--input", "x.csv", "--lambda", "1", "--delta", "1"],
    ["denoise1d", "--input", "x.csv", "--dt", "x"],
    # arguments the command does not recognise
    ["denoise1d", "--input", "x.csv", "--foo"],
    ["tv1d", "--input", "x.csv", "extra"],
    ["experiment", "fig1", "--bogus"],
]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", _USAGE_ARGVS, ids=" ".join)
def test_prints_what_the_full_parser_prints(argv, columns, monkeypatch,
                                            capsys):
    # argparse wraps its usage to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert main(argv) == info.value.code
    assert capsys.readouterr() == expected


def test_builds_only_the_named_subparser(constant_csv, tmp_path, monkeypatch):
    built = []

    def add_common_flags(sub, tv):
        built.append(sub.prog)
        return real(sub, tv)

    real = lapden.cli._add_common_flags
    monkeypatch.setattr(lapden.cli, "_add_common_flags", add_common_flags)
    assert main(["tv1d", "--input", str(constant_csv),
                 "--output", str(tmp_path / "out.csv")]) == 0
    assert built == ["lapden tv1d"]
