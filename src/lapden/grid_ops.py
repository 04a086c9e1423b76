"""Discrete differential operators: banded 1D second-derivative matrices and
2D five-point Laplacians with Neumann / Dirichlet boundary closures."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .core import Field2D


class SingularSystemError(ValueError):
    """Raised when a banded solve hits a singular (to tolerance) pivot."""


class Stencil2DKind(Enum):
    """Boundary closure of the 2D five-point Laplacian.

    NEUMANN_MIRROR: out-of-domain neighbours mirror the first interior node
    (ghost u[-1,j] = u[1,j]), enforcing zero normal derivative.
    DIRICHLET_ZERO: the operand is zero on the boundary ring and outside,
    for quantities that vanish on the boundary.
    """

    NEUMANN_MIRROR = "neumann-mirror"
    DIRICHLET_ZERO = "dirichlet-zero"


@dataclass(frozen=True)
class BandedMatrix:
    """Symmetric-storage banded matrix.

    ``bands`` maps a diagonal offset k to the array of entries M[r, r+k];
    for k >= 0 entry m of the band is M[m, m+k], for k < 0 it is M[m+|k|, m].
    """

    n: int
    bands: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {self.n}")
        seen = set()
        clean = []
        for offset, values in self.bands:
            values = np.asarray(values, dtype=float)
            if offset in seen:
                raise ValueError(f"duplicate band offset {offset}")
            seen.add(offset)
            if abs(offset) >= self.n:
                raise ValueError(f"band offset {offset} out of range for n={self.n}")
            if values.size != self.n - abs(offset):
                raise ValueError(
                    f"band {offset} has length {values.size}, "
                    f"expected {self.n - abs(offset)}"
                )
            clean.append((int(offset), values))
        clean.sort(key=lambda kv: kv[0])
        object.__setattr__(self, "bands", tuple(clean))


def _second_difference(n_interior: int, h: float, end: float) -> BandedMatrix:
    # (1/h^2) * tridiag(1, -2, 1) with `end` as the first and last diagonal entry
    if n_interior < 2:
        raise ValueError(f"need at least 2 nodes, got {n_interior}")
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    scale = 1.0 / (h * h)
    diag = np.full(n_interior, -2.0)
    diag[0] = diag[-1] = end
    off = np.ones(n_interior - 1)
    return BandedMatrix(
        n_interior, ((-1, off * scale), (0, diag * scale), (1, off * scale)))


def build_d0(n_interior: int, h: float) -> BandedMatrix:
    """Second-derivative matrix with zero-slope ends.

    (1/h^2) * tridiag(1, -2, 1) with first row (-1, 1, ...) and last row
    (..., 1, -1) from eliminating the ghost values u[-1] = u[0] and
    u[n] = u[n-1].  Symmetric; every row sums to zero.
    """
    return _second_difference(n_interior, h, -1.0)


def build_d1(n_interior: int, h: float) -> BandedMatrix:
    """Second-derivative matrix with zero-value ends.

    (1/h^2) * tridiag(1, -2, 1); the first and last rows keep the full -2
    diagonal because the neighbouring boundary values are zero.  Symmetric
    negative definite.
    """
    return _second_difference(n_interior, h, -2.0)


def apply_banded(m: BandedMatrix, x: np.ndarray) -> np.ndarray:
    """y = M @ x in O(bandwidth * n)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"operand has shape {x.shape}, matrix expects ({m.n},)")
    y = np.zeros(m.n)
    for k, v in m.bands:
        if k >= 0:
            y[: m.n - k] += v * x[k:]
        else:
            y[-k:] += v * x[: m.n + k]
    return y


def matmul_banded(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Banded product C = A @ B; offsets add, bandwidths add."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    out: dict[int, np.ndarray] = {}
    for k1, v1 in a.bands:
        for k2, v2 in b.bands:
            k = k1 + k2
            if abs(k) >= n:
                continue
            r_lo = max(0, -k1, -k)
            r_hi = min(n - 1, n - 1 - k1, n - 1 - k)
            if r_lo > r_hi:
                continue
            rows = slice(r_lo, r_hi + 1)
            dest = out.setdefault(k, np.zeros(n - abs(k)))
            # C[r, r+k] += A[r, r+k1] * B[r+k1, r+k]
            m = slice(r_lo + min(0, k), r_hi + 1 + min(0, k))
            m1 = slice(r_lo + min(0, k1), r_hi + 1 + min(0, k1))
            m2 = slice(r_lo + min(k1, k), r_hi + 1 + min(k1, k))
            dest[m] += v1[m1] * v2[m2]
    bands = tuple((k, v) for k, v in sorted(out.items()))
    return BandedMatrix(n, bands)


def _to_lapack_banded(m: BandedMatrix) -> tuple[tuple[int, int], np.ndarray]:
    l = max((-k for k, _ in m.bands), default=0)
    u = max((k for k, _ in m.bands), default=0)
    l, u = max(l, 0), max(u, 0)
    ab = np.zeros((l + u + 1, m.n))
    for k, v in m.bands:
        if k >= 0:
            ab[u - k, k:] = v
        else:
            ab[u - k, : m.n + k] = v
    return (l, u), ab


def solve_banded(m: BandedMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs by banded LU with partial pivoting within the band."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (m.n,):
        raise ValueError(f"rhs has shape {rhs.shape}, matrix expects ({m.n},)")
    lu, ab = _to_lapack_banded(m)
    try:
        x = scipy.linalg.solve_banded(lu, ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(str(err)) from err
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("banded solve produced non-finite values")
    return x


def laplacian_2d(u: Field2D, kind: Stencil2DKind) -> Field2D:
    """Five-point Laplacian of a 2D field with the requested boundary closure."""
    return u.with_values(laplacian_2d_values(u.values, u.h, kind))


def laplacian_2d_values(values: np.ndarray, h: float, kind: Stencil2DKind) -> np.ndarray:
    """Array-level five-point Laplacian; see :func:`laplacian_2d`."""
    if values.ndim != 2 or values.shape[0] < 3 or values.shape[1] < 3:
        raise ValueError(f"need a grid of at least 3x3 nodes, got {values.shape}")
    # ghost ring by slicing; the stencil never reads the four corners
    padded = np.zeros((values.shape[0] + 2, values.shape[1] + 2))
    if kind is Stencil2DKind.NEUMANN_MIRROR:
        padded[1:-1, 1:-1] = values
        padded[0, 1:-1] = values[1]
        padded[-1, 1:-1] = values[-2]
        padded[1:-1, 0] = values[:, 1]
        padded[1:-1, -1] = values[:, -2]
    elif kind is Stencil2DKind.DIRICHLET_ZERO:
        # the operand vanishes on the boundary ring as well as outside
        padded[2:-2, 2:-2] = values[1:-1, 1:-1]
    else:
        raise ValueError(f"unknown stencil kind: {kind!r}")
    lap = padded[:-2, 1:-1] + padded[2:, 1:-1]
    lap += padded[1:-1, :-2]
    lap += padded[1:-1, 2:]
    lap -= 4.0 * padded[1:-1, 1:-1]
    lap /= h * h
    return lap
