"""ROF total-variation denoising, solved by the primal-dual Newton method.

Used as the comparison method: it removes noise well but its reconstructions
tend toward piecewise-constant staircases, which the nonlinear Laplacian
filter is designed to avoid.

The equilibrium solves r(u) = div(grad u / |grad u|_beta) - lam (u - u0) = 0
with face-centered regularized fluxes and zero flux through the boundary.
The iteration is the primal-dual Newton method of Chan, Golub & Mulet, "A
nonlinear primal-dual method for total variation-based image restoration",
SIAM J. Sci. Comput. 20 (1999); see also Vogel, Computational Methods for
Inverse Problems (2002), ch. 8.  It carries a dual flux w on every face,
starting at w = 0, that Newton's method drives toward d/m, where d is the
face difference over h and m = |grad u|_beta.  Each step solves A du = r(u)
with A = lam I - div(g grad), g = (1 - w d/m)/(h^2 m), which is symmetric
positive definite because |w| <= 1 and |d/m| < 1, and takes the full step
u <- u + du.  The dual moves by dw = h^2 g G du - w + d/m, G the face
difference over h, scaled by min(1, 0.9 s_max) for the longest step s_max
that keeps |w| <= 1 on every face (_dual_update).

From w = 0 the first step is the lagged-diffusivity step of Vogel & Oman
(SIAM J. Sci. Comput. 17, 1996); the later steps converge much faster than
its linear rate.  fig2 and fig3 at n=100 take 9-10 steps, and fig5 at n=64
takes 19-20.  Chan & Mulet (SIAM J. Numer. Anal. 36, 1999)
prove that the exact 1D lagged step lowers the regularized ROF energy at
every step.  No theorem says so for the primal-dual step; the energy is
observed to fall at every step of the fig2/fig3 runs at seeds 0-9.

In 1D A is tridiagonal and the step is exact (a banded Cholesky solve).  In
2D each face's linearized magnitude keeps only the normal derivative, which
keeps A SPD, and the step is inexact: conjugate gradients (Hestenes &
Stiefel 1952) from zero, preconditioned by diag(A), with A applied face by
face and never stored.  CG stops at the relative residual eta that
core._iterate chooses for each step by Eisenstat & Walker's choice 2
("Choosing the forcing terms in an inexact Newton method", SIAM J. Sci.
Comput. 17, 1996; core._forcing_term).  Neither changes the equilibrium: a
solve converges once ||r|| <= 10 tol lam ||u - u0||, whatever the steps
did.

The iteration is core._iterate, the loop every solver in lapden runs; this
module supplies the face residual and the primal-dual step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (Field2D, RunTrace, Signal1D, _iterate, require_count,
                   require_finite, require_same_grid)


@dataclass(frozen=True)
class TvParams:
    """Fidelity weight, gradient regularizer |d|_beta = sqrt(d^2 + beta),
    iteration cap, and the stationarity tolerance of the stop rule.

    lam = 0 is a valid parameter set for evaluating tv_rhs_1d/tv_rhs_2d, but
    the denoisers need lam > 0.  All float knobs must be finite.
    """

    lam: float = 1.0
    beta: float = 1e-6
    max_iters: int = 200_000
    tol: float = 1e-6

    def __post_init__(self):
        require_finite(self, "lam", "beta", "tol")
        require_count(self, "max_iters")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


def _tv_faces(values: np.ndarray, h: float, beta: float) -> tuple:
    """The faces of the grid, one (axis, difference, magnitude) per axis.

    difference is the forward difference across each face along axis and
    magnitude the regularized gradient magnitude |grad u|_beta there.  In 2D
    each face divides by the full gradient magnitude, with the transverse
    derivative averaged from the four surrounding nodes (mirror ghosts),
    which keeps the scheme isotropic.
    """
    if values.ndim == 1:
        dx = np.diff(values) / h
        return ((0, dx, np.sqrt(dx * dx + beta)),)
    # mirror ghost rows and columns by slicing; no average reads a corner
    rows = np.vstack((values[1], values, values[-2]))
    cols = np.hstack((values[:, 1:2], values, values[:, -2:-1]))
    # vertical faces between columns j and j+1
    dx = (values[:, 1:] - values[:, :-1]) / h
    dy_at_x = (rows[2:, :-1] + rows[2:, 1:] - rows[:-2, :-1] - rows[:-2, 1:]) / (4.0 * h)
    # horizontal faces between rows i and i+1
    dy = (values[1:, :] - values[:-1, :]) / h
    dx_at_y = (cols[:-1, 2:] + cols[1:, 2:] - cols[:-1, :-2] - cols[1:, :-2]) / (4.0 * h)
    return ((1, dx, np.sqrt(dx * dx + dy_at_x * dy_at_x + beta)),
            (0, dy, np.sqrt(dy * dy + dx_at_y * dx_at_y + beta)))


def _sides(ndim: int, axis: int) -> tuple[tuple, tuple]:
    """Indices of the nodes before and after each face across axis."""
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _net_flux(shape: tuple, fluxes) -> np.ndarray:
    """Sum over the faces of each node of the flux, one (lo, hi, flux) per
    axis (lo and hi from _sides), counted + at the node before the face and
    - at the node after."""
    net = np.zeros(shape)
    for lo, hi, flux in fluxes:
        net[lo] += flux
        net[hi] -= flux
    return net


def _tv_divergence(values: np.ndarray, h: float, faces) -> np.ndarray:
    """div(grad u / |grad u|_beta) from the faces of u."""
    return _net_flux(values.shape, ((*_sides(values.ndim, axis), diff / mag)
                                    for axis, diff, mag in faces)) / h


def tv_rhs_1d(u: Signal1D, u0: Signal1D, params: TvParams) -> np.ndarray:
    """Curvature flow plus fidelity: div(u_x/|u_x|_beta) - lam (u - u0)."""
    require_same_grid(u, u0)
    faces = _tv_faces(u.values, u.h, params.beta)
    return _tv_divergence(u.values, u.h, faces) \
        - params.lam * (u.values - u0.values)


def tv_rhs_2d(u: Field2D, u0: Field2D, params: TvParams) -> Field2D:
    require_same_grid(u, u0)
    faces = _tv_faces(u.values, u.h, params.beta)
    rhs = _tv_divergence(u.values, u.h, faces) \
        - params.lam * (u.values - u0.values)
    return u.with_values(rhs)


def _tv_operator(faces, duals, shape: tuple, h: float, lam: float) -> tuple:
    """The matrix A = lam I - div(g grad) of one primal-dual Newton step:
    one (lo, hi, weight) per axis, with the indices of the nodes before and
    after each face (_sides) and the face weights
    g = (1 - w d/m) / (h^2 m) for the dual flux w, the difference d and the
    magnitude m of each face, and the diagonal of A, lam plus the weights of
    the adjacent faces."""
    weights = []
    diag = np.full(shape, lam, dtype=float)
    for (axis, diff, mag), w in zip(faces, duals):
        weight = (1.0 - w * (diff / mag)) / (h * h * mag)
        lo, hi = _sides(len(shape), axis)
        diag[lo] += weight
        diag[hi] += weight
        weights.append((lo, hi, weight))
    return weights, diag


def _tv_apply(weights, lam: float, x: np.ndarray) -> np.ndarray:
    """A x = lam x - div(g grad x), face by face."""
    return lam * x - _net_flux(
        x.shape, [(lo, hi, weight * (x[hi] - x[lo])) for lo, hi, weight in weights])


def _tridiagonal(weights, diag: np.ndarray) -> np.ndarray:
    """The 1D A in the upper band storage of scipy.linalg.solveh_banded."""
    ab = np.zeros((2, diag.size))
    ab[0, 1:] = -weights[0][2]
    ab[1] = diag
    return ab


def _pcg(matvec, diag: np.ndarray, b: np.ndarray, eta: float) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients (Hestenes & Stiefel 1952)
    for the SPD system A x = b from x = 0, until ||b - A x|| <= eta ||b||
    (or after b.size steps, where exact arithmetic would have solved it);
    eta is the forcing term of core._forcing_term (Eisenstat & Walker's
    choice 2)."""
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
    p = z
    rz = float(np.vdot(r, z))
    stop = eta * float(np.linalg.norm(b))
    for _ in range(b.size):
        if float(np.linalg.norm(r)) <= stop:
            break
        q = matvec(p)
        alpha = rz / float(np.vdot(p, q))
        x += alpha * p
        r -= alpha * q
        z = r / diag
        rz, rz_prev = float(np.vdot(r, z)), rz
        p = z + (rz / rz_prev) * p
    return x


def _dual_update(duals, steps) -> list:
    """w + s dw on every face, one (w, dw) pair per axis, with one step
    length s = min(1, 0.9 s_max) for all faces, where s_max is the longest
    step that keeps |w| <= 1 on every face."""
    s_max = np.inf
    for w, dw in zip(duals, steps):
        moving = dw != 0
        room = (1.0 - np.sign(dw[moving]) * w[moving]) / np.abs(dw[moving])
        s_max = min(s_max, float(np.min(room, initial=np.inf)))
    s = min(1.0, 0.9 * s_max)
    return [w + s * dw for w, dw in zip(duals, steps)]


def _tv_evolve(values0: np.ndarray, h: float,
               params: TvParams) -> tuple[np.ndarray, RunTrace]:
    """Primal-dual Newton iteration from values0 to the TV equilibrium."""
    lam = params.lam
    if not lam > 0:
        raise ValueError(f"lam must be > 0 for TV denoising (the fidelity "
                         f"weight must be positive), got {lam}")
    duals = None  # the dual flux w of every face, one array per axis

    def residual(u, it):
        faces = _tv_faces(u, h, params.beta)
        r = _tv_divergence(u, h, faces) - lam * (u - values0)
        return r, lam, faces

    def solve(faces, lam, r, eta):
        nonlocal duals
        if duals is None:
            duals = [np.zeros_like(diff) for _, diff, _ in faces]
        weights, diag = _tv_operator(faces, duals, r.shape, h, lam)
        if r.ndim == 1:
            du = scipy.linalg.solveh_banded(
                _tridiagonal(weights, diag), r, overwrite_ab=True,
                check_finite=False)
        else:
            du = _pcg(lambda x: _tv_apply(weights, lam, x), diag, r, eta)
        # dw = (1 - w d/m)/m G du - w + d/m, where (1 - w d/m)/m = h^2 g
        duals = _dual_update(duals, [
            h * weight * (du[hi] - du[lo]) - w + diff / mag
            for (lo, hi, weight), w, (_, diff, mag) in zip(weights, duals, faces)])
        return du

    return _iterate(values0, values0.copy(), params.tol, params.max_iters,
                    residual, solve)


def tv_denoise_1d(u0: Signal1D, params: TvParams) -> tuple[Signal1D, RunTrace]:
    """TV-denoise a signal: the primal-dual Newton iteration to equilibrium."""
    if len(u0) < 3:
        raise ValueError(f"need at least 3 samples, got {len(u0)}")
    values, trace = _tv_evolve(u0.values, u0.h, params)
    return u0.with_values(values), trace


def tv_denoise_2d(u0: Field2D, params: TvParams) -> tuple[Field2D, RunTrace]:
    """TV-denoise a field: the primal-dual Newton iteration to equilibrium."""
    if u0.rows < 3 or u0.cols < 3:
        raise ValueError(f"need at least a 3x3 field, got {u0.rows}x{u0.cols}")
    values, trace = _tv_evolve(u0.values, u0.h, params)
    return u0.with_values(values), trace
