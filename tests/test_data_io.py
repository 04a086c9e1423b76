import hashlib

import numpy as np
import pytest

from lapden import (
    CsvParseError,
    EmptyInputError,
    Field2D,
    PgmFormatError,
    PlotSpec,
    Signal1D,
    read_csv_1d,
    read_pgm,
    write_csv_1d,
    write_pgm,
    write_svg_plot,
)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "s.csv"
        s = Signal1D(np.array([1.5, -2.0, 3.25]))
        write_csv_1d(path, s)
        back = read_csv_1d(path)
        assert np.array_equal(back.values, s.values)
        assert back.h == s.h
        assert back.domain == s.domain

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(41)
        path = tmp_path / "r.csv"
        s = Signal1D(rng.normal(size=64) * 1e7, h=0.015625,
                     domain=(0.0, 65 * 0.015625))
        write_csv_1d(path, s)
        back = read_csv_1d(path)
        assert np.array_equal(back.values, s.values)
        assert back.h == s.h

    def test_bare_file_gets_unit_spacing(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1\n2\n3\n")
        s = read_csv_1d(path)
        assert np.array_equal(s.values, np.array([1.0, 2.0, 3.0]))
        assert s.h == 1.0

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\nabc\n3\n")
        with pytest.raises(CsvParseError, match="line 2"):
            read_csv_1d(path)

    @pytest.mark.parametrize("literal", ["nan", "inf", "-Infinity"])
    def test_non_finite_sample_cites_line(self, tmp_path, literal):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"# h=1.0 a=-1.0 b=3.0\n1\n{literal}\n3\n")
        with pytest.raises(CsvParseError, match=f"line 3: non-finite sample"):
            read_csv_1d(path)

    @pytest.mark.parametrize("a, b", [("nan", "4.0"), ("inf", "inf"),
                                      ("-inf", "-inf"), ("nan", "nan")])
    def test_non_finite_domain_rejected(self, tmp_path, a, b):
        path = tmp_path / "domain.csv"
        path.write_text(f"# h=1.0 a={a} b={b}\n1\n2\n3\n")
        with pytest.raises(ValueError, match="domain ends must be finite"):
            read_csv_1d(path)

    def test_bad_grid_header_cites_line(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("# h=x a=0 b=1\n1\n2\n")
        with pytest.raises(CsvParseError, match="line 1: bad grid header"):
            read_csv_1d(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            read_csv_1d(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# a note\n0.5\n# another\n1.5\n")
        assert np.array_equal(read_csv_1d(path).values, np.array([0.5, 1.5]))

    def test_first_bad_line_is_cited_past_blank_and_comment(self, tmp_path):
        # a header, a blank line and a comment come before the line at fault
        path = tmp_path / "mixed.csv"
        lines = ["# h=1.0 a=-1.0 b=6.0", "1.5", "", "# a note", " 2.5 ",
                 "4..0", "3.5", "  inf "]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError) as info:
            read_csv_1d(path)
        assert str(info.value) == "line 6: not a decimal literal: '4..0'"
        lines[5] = "3.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError) as info:
            read_csv_1d(path)
        assert str(info.value) == "line 8: non-finite sample 'inf'"

    def test_padded_literals_parse_as_stripped(self, tmp_path):
        literals = ["  1.5", "-0.0 ", "\t-3e-2\t", " +4 ", "5_0.25",
                    "\u00a06.1\u2003", "1e308  ", "  0.1", "1.5\x1f"]
        path = tmp_path / "padded.csv"
        path.write_text("\n".join(literals) + "\n", encoding="utf-8")
        assert ([repr(v) for v in read_csv_1d(path).values.tolist()]
                == [repr(float(x.strip())) for x in literals])


class TestPgm:
    def test_p2_decode_example(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P2 2 2 255 0 255 128 64")
        f = read_pgm(path)
        assert np.array_equal(f.values,
                              np.array([[0.0, 1.0], [128 / 255, 64 / 255]]))

    def test_all_zero_write(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm(path, Field2D(np.zeros((3, 4))))
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        assert data[len(b"P5\n4 3\n255\n"):] == bytes(12)

    def test_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(42)
        path = tmp_path / "rt.pgm"
        f = Field2D(rng.uniform(size=(16, 9)))
        write_pgm(path, f)
        back = read_pgm(path)
        assert np.abs(back.values - f.values).max() <= 1 / 510 + 1e-15

    def test_p5_round_trip_values_exact(self, tmp_path):
        path = tmp_path / "exact.pgm"
        f = Field2D(np.arange(12, dtype=float).reshape(3, 4) / 255.0)
        write_pgm(path, f)
        assert np.array_equal(read_pgm(path).values, f.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7 2 2 255 0 0 0 0")
        with pytest.raises(PgmFormatError, match="magic"):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n3 3\n255\n" + bytes(5))
        with pytest.raises(PgmFormatError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("data, message", [
        (b"P5\n3 3\n", "truncated header"),
        (b"P2 x 2 255 0 0 0 0", "non-numeric width: b'x'"),
        (b"P2 0 2 255", "width must be positive, got 0"),
        (b"P2 2 2 255 0 1 2", "truncated raster: expected 4 samples, got 3"),
        (b"P2 2 2 255 0 1 x 3", "non-numeric raster sample"),
        (b"P2 2 2 100 0 1 200 3", "raster sample exceeds maxval"),
    ], ids=["header", "width-text", "width-zero", "p2-raster", "p2-sample",
            "above-maxval"])
    def test_malformed_file_rejected(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmFormatError, match=message):
            read_pgm(path)

    def test_maxval_too_large(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P2 2 2 65535 0 1 2 3")
        with pytest.raises(PgmFormatError, match="maxval"):
            read_pgm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 255 128 64")
        assert read_pgm(path).values.shape == (2, 2)

    def test_clamps_out_of_range_on_write(self, tmp_path):
        path = tmp_path / "clamp.pgm"
        write_pgm(path, Field2D(np.array([[-1.0, 0.5, 2.0]] * 3)))
        back = read_pgm(path)
        assert back.values[0, 0] == 0.0
        assert back.values[0, 2] == 1.0

    def test_non_finite_write_rejected(self, tmp_path):
        # Field2D checks its samples on construction, not after
        f = Field2D(np.zeros((3, 3)))
        f.values[1, 1] = np.nan
        path = tmp_path / "nan.pgm"
        with pytest.raises(ValueError, match="non-finite"):
            write_pgm(path, f)
        assert not path.exists()


class TestSvg:
    def test_two_constant_series(self, tmp_path):
        path = tmp_path / "c.svg"
        write_svg_plot(path, PlotSpec(320, 200, (
            ("low", "#ff0000", np.full(5, 1.0)),
            ("high", "#0000ff", np.full(5, 2.0)),
        )))
        text = path.read_text()
        assert text.count("<polyline") == 2
        # each constant series is a horizontal line at its own height
        pts = [seg.split('points="')[1].split('"')[0]
               for seg in text.split("<polyline")[1:]]
        ys = [{p.split(",")[1] for p in block.split()} for block in pts]
        assert all(len(y) == 1 for y in ys)
        assert ys[0] != ys[1]

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(43)
        values = rng.normal(size=50)
        spec = PlotSpec(640, 420, (("a", "#d62728", values),
                                   ("b", "#1f77b4", values * 0.5)), title="t")
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg_plot(p1, spec)
        write_svg_plot(p2, spec)
        assert p1.read_bytes() == p2.read_bytes()

    def test_noisy_vs_restored_has_two_polylines(self, tmp_path):
        x = np.linspace(0, 1, 64)
        noisy = np.sin(2 * np.pi * x) + 0.1 * np.cos(40 * x)
        restored = np.sin(2 * np.pi * x)
        path = tmp_path / "plot.svg"
        write_svg_plot(path, PlotSpec(640, 420, (
            ("noisy", "#d62728", noisy), ("restored", "#1f77b4", restored),
        )))
        assert path.read_text().count("<polyline") == 2

    @pytest.mark.parametrize("width, series, message", [
        (0, (("a", "#000000", np.ones(3)),), "dimensions must be positive"),
        (100, (), "at least one series"),
    ], ids=["zero-width", "no-series"])
    def test_bad_spec_rejected(self, width, series, message):
        with pytest.raises(ValueError, match=message):
            PlotSpec(width, 100, series)

    def test_series_length_validation(self):
        with pytest.raises(ValueError):
            PlotSpec(100, 100, (("a", "#000000", np.ones(3)),
                                ("b", "#000000", np.ones(4))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.array([0.0, 1.0, bad, 2.0, bad])
        with pytest.raises(ValueError,
                           match=f"series 'restored': samples must be finite, "
                                 f"got {bad} at index 2"):
            PlotSpec(100, 100, (("noisy", "#000000", np.ones(5)),
                                ("restored", "#000000", values)))


_RNG43 = np.random.default_rng(43).normal(size=50)
# on a 100 x 100 plot spanning [0, 90], x = 5 + 5.625 i and y = 95 - v, so
# 10.625, 94.875, ... sit on a .xx5 rounding boundary; -0.0 is kept as such
_ROUNDING = np.array([0.0, 90.0, 0.125, 0.375, 0.625, 0.875, -0.0, 1.005,
                      2.675, 45.5, 12.345, 0.005, 0.015, 0.025, 89.995, 3.0,
                      -0.0])


def _svg(*args, **kwargs):
    return lambda path: write_svg_plot(path, PlotSpec(*args, **kwargs))


def _csv(*args, **kwargs):
    return lambda path: write_csv_1d(path, Signal1D(*args, **kwargs))


# sha256 of each writer's output on fixed inputs, recorded from the
# per-sample writers; formatting whole arrays must keep every byte
@pytest.mark.parametrize("write, digest", [
    pytest.param(_svg(640, 420, (("a", "#d62728", _RNG43),
                                 ("b", "#1f77b4", _RNG43 * 0.5)), title="t"),
                 "8042461b243912857aa6b26ca41b43357ae75288493e7144f5651bed195319d5",
                 id="svg-rng43"),
    pytest.param(_svg(640, 420, (("a", "#d62728", np.array([0.0, 1.0])),)),
                 "ec5a86599a82bb288534d874184fa060c60a2944ed7fd942a77c21105699fe9c",
                 id="svg-two-samples"),
    pytest.param(_svg(320, 200, (("c", "#000000", np.full(7, 2.5)),)),
                 "9c12f1707b9a2e4d44000b5969c99ef84464341a0de8b0d8c5511f633a07b2f9",
                 id="svg-constant"),
    pytest.param(_svg(100, 100, (("r", "#000000", _ROUNDING),)),
                 "cddc3db25db182dbbf39f3929b4cd597f4f5d138c546bf8bafb7afe4fa1080fb",
                 id="svg-rounding"),
    pytest.param(_svg(640, 420, (("x<y & z>w", "#000000", np.array([1.0, 2.0, 3.0])),),
                      title="a & b <c> d"),
                 "b2f4ef74447efea00f3abb581766c5441a0669acb48bd465afe4ff3e835c6240",
                 id="svg-escaped-title"),
    pytest.param(_csv(_RNG43),
                 "564f50441d668977a29e5f284d76ddc7dd43cce49c09edb929e2e715e6ef54d3",
                 id="csv-rng43"),
    pytest.param(_csv(np.array([0.0, 1.0]), h=0.5, domain=(-0.5, 1.0)),
                 "d10ef205569bfe0da4ab3ee483a0dc205ad1379187d7d047b2e7e56d772d0a09",
                 id="csv-two-samples"),
    pytest.param(_csv(np.full(7, 2.5)),
                 "c38fcb50ff60c0760ba532b01e5ab105151d6e33469cd60d729227e7818d4870",
                 id="csv-constant"),
    pytest.param(_csv(np.array([0.125, -0.0, 0.375, 1.005, 2.675, 0.1 + 0.2,
                                1e-300, 1e22])),
                 "c3fd4e39c458f632eddb3c44f45cc728e3e93fa08a886493d472355696f6bf90",
                 id="csv-rounding"),
])
def test_writer_bytes_are_pinned(tmp_path, write, digest):
    path = tmp_path / "out"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
