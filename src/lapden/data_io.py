"""Bit-exact file formats: CSV signals, PGM grayscale fields, SVG line plots."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Field2D, Signal1D, _as_float_array


class CsvParseError(ValueError):
    """Malformed CSV signal file; the message names the offending line."""


class EmptyInputError(ValueError):
    """A signal file with no data lines."""


class PgmFormatError(ValueError):
    """Defective PGM file; the message names the defect."""


_HEADER_RE = re.compile(
    r"#\s*h=(?P<h>\S+)\s+a=(?P<a>\S+)\s+b=(?P<b>\S+)\s*$"
)


def write_csv_1d(path, s: Signal1D) -> None:
    """One decimal literal per line; the leading comment records the grid."""
    a, b = s.domain
    lines = [f"# h={float(s.h)!r} a={float(a)!r} b={float(b)!r}"]
    lines.extend(map(repr, s.values.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv_1d(path) -> Signal1D:
    """Inverse of write_csv_1d; files without a grid comment get h = 1."""
    text = Path(path).read_text(encoding="utf-8")
    grid = None
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if grid is None:
                match = _HEADER_RE.match(stripped)
                if match:
                    try:
                        grid = (
                            float(match["h"]),
                            float(match["a"]),
                            float(match["b"]),
                        )
                    except ValueError as err:
                        raise CsvParseError(
                            f"line {lineno}: bad grid header {stripped!r}"
                        ) from err
            continue
        try:
            value = float(stripped)
        except ValueError as err:
            raise CsvParseError(
                f"line {lineno}: not a decimal literal: {stripped!r}"
            ) from err
        if not math.isfinite(value):
            raise CsvParseError(f"line {lineno}: non-finite sample {stripped!r}")
        values.append(value)
    if not values:
        raise EmptyInputError(f"{path}: no data lines")
    if grid is None:
        return Signal1D(np.array(values))
    h, a, b = grid
    return Signal1D(np.array(values), h=h, domain=(a, b))


def _next_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] != ord("\n"):
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError("truncated header")
    start = pos
    while pos < n and data[pos] not in b" \t\r\n":
        pos += 1
    return data[start:pos], pos


def read_pgm(path) -> Field2D:
    """Decode a P5 (binary) or P2 (ASCII) PGM into reals in [0, 1]."""
    data = Path(path).read_bytes()
    magic, pos = _next_pgm_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"bad magic number {magic!r}, expected P2 or P5")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_pgm_token(data, pos)
        try:
            value = int(token)
        except ValueError as err:
            raise PgmFormatError(f"non-numeric {name}: {token!r}") from err
        if value <= 0:
            raise PgmFormatError(f"{name} must be positive, got {value}")
        fields.append(value)
    width, height, maxval = fields
    if maxval > 255:
        raise PgmFormatError(f"maxval {maxval} > 255 not supported")

    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        raster = data[pos : pos + width * height]
        if len(raster) != width * height:
            raise PgmFormatError(
                f"truncated raster: expected {width * height} bytes, "
                f"got {len(raster)}"
            )
        pixels = np.frombuffer(raster, dtype=np.uint8).astype(float)
    else:
        tokens = data[pos:].split()
        if len(tokens) != width * height:
            raise PgmFormatError(
                f"truncated raster: expected {width * height} samples, "
                f"got {len(tokens)}"
            )
        try:
            pixels = np.array([int(t) for t in tokens], dtype=float)
        except ValueError as err:
            raise PgmFormatError(f"non-numeric raster sample: {err}") from err
    if pixels.max(initial=0.0) > maxval:
        raise PgmFormatError("raster sample exceeds maxval")
    return Field2D((pixels / maxval).reshape(height, width))


def write_pgm(path, f: Field2D) -> None:
    """Binary P5 with maxval 255; values are clamped to [0, 1] first."""
    values = f.values
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    scaled = np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{f.cols} {f.rows}\n255\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())


@dataclass(frozen=True)
class PlotSpec:
    """A line chart: equal-length finite series drawn as polylines over a
    shared autoscaled y-range."""

    width_px: int
    height_px: int
    series: tuple[tuple[str, str, np.ndarray], ...]
    title: str = ""

    def __post_init__(self):
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError("plot dimensions must be positive")
        if not self.series:
            raise ValueError("need at least one series")
        clean = []
        length = None
        for label, color, values in self.series:
            try:
                values = _as_float_array(values, 1)
            except ValueError as err:
                raise ValueError(f"series {label!r}: {err}") from err
            if length is None:
                length = values.size
            if values.size != length or length < 2:
                raise ValueError("all series need the same length >= 2")
            clean.append((label, color, values))
        object.__setattr__(self, "series", tuple(clean))


def write_svg_plot(path, spec: PlotSpec) -> None:
    """Standalone SVG 1.1; byte-deterministic for identical input."""
    w, h = spec.width_px, spec.height_px
    mx, my = 0.05 * w, 0.05 * h
    n = spec.series[0][2].size
    ymin = min(float(v.min()) for _, _, v in spec.series)
    ymax = max(float(v.max()) for _, _, v in spec.series)
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5

    # x and y are formed on whole arrays by the per-point operations in the
    # same order, so every coordinate keeps its float64 bits
    xs = (mx + (w - 2 * mx) * np.arange(n) / (n - 1)).tolist()

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n',
        f'<rect width="{w}" height="{h}" fill="white"/>\n',
    ]
    if spec.title:
        parts.append(
            f'<text x="{w / 2:.2f}" y="{0.6 * my:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(spec.title)}</text>\n'
        )
    for idx, (label, color, values) in enumerate(spec.series):
        ys = h - my - (h - 2 * my) * (values - ymin) / (ymax - ymin)
        points = " ".join(map("{:.2f},{:.2f}".format, xs, ys.tolist()))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{points}"/>\n'
        )
        if label:
            parts.append(
                f'<text x="{mx + 4:.2f}" y="{my + 14 * (idx + 1):.2f}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">'
                f"{_escape(label)}</text>\n"
            )
    parts.append("</svg>\n")
    Path(path).write_text("".join(parts), encoding="utf-8")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
