"""Discrete differential operators: 1D second-derivative matrices and the
lagged-diffusivity matrix in LAPACK band storage, and 2D five-point
Laplacians with Neumann / Dirichlet boundary closures."""

from __future__ import annotations

from enum import Enum

import numpy as np
import scipy.linalg

from .core import Field2D


_gbsv = scipy.linalg.get_lapack_funcs("gbsv", dtype=np.float64)


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


def _second_difference(n_interior: int, h: float, end: float) -> np.ndarray:
    # (1/h^2) * tridiag(1, -2, 1) with `end` as the first and last diagonal entry
    if n_interior < 2:
        raise ValueError(f"need at least 2 nodes, got {n_interior}")
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    scale = 1.0 / (h * h)
    ab = np.zeros((3, n_interior))
    ab[0, 1:] = ab[2, :-1] = scale
    ab[1] = -2.0 * scale
    ab[1, 0] = ab[1, -1] = end * scale
    return ab


def build_d0(n_interior: int, h: float) -> np.ndarray:
    """Second-derivative matrix with zero-slope ends, in band storage.

    (1/h^2) * tridiag(1, -2, 1) with first row (-1, 1, ...) and last row
    (..., 1, -1) from eliminating the ghost values u[-1] = u[0] and
    u[n] = u[n-1].  Symmetric; every row sums to zero.

    Band storage is the layout of scipy.linalg.solve_banded: a matrix with w
    sub- and w super-diagonals is held as a (2w + 1, n) array ab with
    ab[w + i - j, j] = A[i, j], and the corners outside the matrix are zero.
    """
    return _second_difference(n_interior, h, -1.0)


def build_d1(n_interior: int, h: float) -> np.ndarray:
    """Second-derivative matrix with zero-value ends, in band storage (see
    build_d0).

    (1/h^2) * tridiag(1, -2, 1); the first and last rows keep the full -2
    diagonal because the neighbouring boundary values are zero.  Symmetric
    negative definite.
    """
    return _second_difference(n_interior, h, -2.0)


def build_lagged_1d(g: np.ndarray, h: float, lam: float) -> np.ndarray:
    """D1 diag(g) D0 + lam I in band storage (see build_d0): pentadiagonal.

    Each band is written in closed form, with its products summed in the
    order of the banded product D1 (diag(g) D0).
    """
    g = np.asarray(g, dtype=float)
    d0 = build_d0(g.size, h)[1]  # also checks the size and the spacing
    s = 1.0 / (h * h)
    gs = g * s
    gd = g * d0
    ab = np.zeros((5, g.size))
    ab[0, 2:] = ab[4, :-2] = s * gs[1:-1]
    ab[1, 1:] = (-2.0 * s) * gs[:-1] + s * gd[1:]  # A[r, r+1]
    ab[3, :-1] = s * gd[:-1] + (-2.0 * s) * gs[1:]  # A[r+1, r]
    diag = ab[2]
    diag[1:] += s * gs[:-1]
    diag += (-2.0 * s) * gd
    diag[:-1] += s * gs[1:]
    diag += lam
    return ab


def _half_bandwidth(ab: np.ndarray, x: np.ndarray) -> int:
    # w of a (2w + 1, n) band storage, checked against the operand x
    if ab.ndim != 2 or ab.shape[0] % 2 == 0 or x.shape != (ab.shape[1],):
        raise ValueError(
            f"band storage of shape {ab.shape} does not fit an operand of "
            f"shape {x.shape}: need (2w + 1, n) storage and an (n,) operand")
    return ab.shape[0] // 2


def apply_banded(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = A @ x for A in band storage (see build_d0), in O(w * n)."""
    ab = np.asarray(ab, dtype=float)
    x = np.asarray(x, dtype=float)
    w = _half_bandwidth(ab, x)
    n = x.size
    y = np.zeros(n)
    # A[r, r+k] = ab[w - k, r + k]; the offsets ascend, which fixes the
    # rounding of the sum
    for k in range(-w, w + 1):
        if k >= 0:
            y[: n - k] += ab[w - k, k:] * x[k:]
        else:
            y[-k:] += ab[w - k, : n + k] * x[: n + k]
    return y


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for A in band storage (see build_d0) by banded LU with
    partial pivoting within the band (LAPACK gbsv, called directly: the
    scipy.linalg.solve_banded wrapper costs more than the solve at these
    sizes)."""
    ab = np.asarray(ab, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    w = _half_bandwidth(ab, rhs)
    lu = np.zeros((3 * w + 1, rhs.size))  # gbsv keeps w extra rows for the LU fill
    lu[w:] = ab
    x, info = _gbsv(w, w, lu, rhs, overwrite_ab=True)[2:]
    if info > 0:
        raise SingularSystemError(f"singular matrix: zero pivot in column {info}")
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
