"""The nonlinear Laplacian filter.

Finds the equilibrium of du/dt = -D1 F(u) - lambda (u - u0) in 1D (and of
the double-Laplacian analogue in 2D), which solves the fourth-order
stationary filter equation.  F saturates large curvature, so
discontinuities survive while oscillatory noise is diffused away.

One evaluator (_evaluator) forms the diffusion term D(u) = L_D F(L_N u)
in either dimension, for the loop, the right-hand sides and
adaptive_lambda.  The loop is core._iterate, which the TV baseline runs
too: it forms the stationary residual r = -D(u) - lambda (u - u0) from
D(u), and rejects a fixed lambda <= 0.  _evolve hands it the evaluator and
the step rule, which it alone chooses and which returns the next iterate.
A fixed time step dt takes explicit Euler steps u <- u + dt r.  Otherwise
the equilibrium is reached without time stepping, by the
lagged-diffusivity fixed point of Vogel & Oman, "Iterative methods for
total variation denoising", SIAM J. Sci. Comput. 17 (1996): writing
F(w) = g(w) w with g = (w^2 + epsilon)^-p > 0, each outer step freezes g
at w = L_N u and takes u <- u + A^-1 r with A = L_D diag(g) L_N + lambda I.
L_N and L_D are the dimension's zero-slope and zero-value Laplacians: D0
and D1 in 1D, five-point stencils in 2D.  Only the inner solve differs
between the dimensions.  In 1D A is pentadiagonal, is written band by band
in closed form (grid_ops.build_lagged_1d) and is solved exactly by banded LU
(grid_ops.solve_banded).  In 2D A is too large for that.  Let T be the
five-point Laplacian with zero values outside the grid, the Kronecker sum
of the row and column D1, and R the projection that zeroes the boundary
ring.  Then L_D = T R (the zero-boundary stencil zeroes its operand's
ring) and R L_N = R T (the mirror stencil's interior rows read no ghost),
so A = T diag(g ring_mask) T + lambda I: symmetric positive definite.
A^-1 r is approximated by one cycle of right-preconditioned GMRES (Saad &
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), preconditioned by
P = max(g) T^2 + lambda I, which is A for a constant g up to a term on the
boundary ring.  T, and so P, is diagonal in the products Q of the
eigenbases of the row and column D1, the DST-I sine bases (_d1_eigh, by
scipy.linalg.eigh_tridiagonal): the fast diagonalization of Lynch, Rice &
Thomas (Numer. Math. 6, 1964).  So GMRES runs on the sine-basis
coefficients (_lagged_2d): on Q^T A P^-1 Q, which has the Krylov residual
norms of A P^-1, and whose matvec is four dense matrix products with the
two bases and applies no stencil; there is no fast transform.  GMRES
stays although A is symmetric: preconditioned CG in its place was faster
at fig5 n=64 but missed the acceptance suite's 1e-11 flip-equivariance
bound (1.45e-11), and scipy's MINRES at the same eta took 2-3 times the
matvecs.  GMRES stops at the relative residual eta that core._iterate
chooses for each correction by Eisenstat & Walker's choice 2 ("Choosing
the forcing terms in an inexact Newton method", SIAM J. Sci. Comput. 17,
1996; core._forcing_term).

The lagged fixed point converges only linearly, so in 1D at p = 0.5 each
correction first tries the Newton step: g = F'(w) = epsilon (w^2 +
epsilon)^-3/2 in the same band makes A minus the exact Jacobian of r.  The
step is kept when the residual at the trial point, at the step's lambda, is
at most half the residual it solved with, and the lagged step is taken
otherwise: inexact Newton globalized by a fallback, in the sense of Dembo,
Eisenstat & Steihaug, "Inexact Newton methods", SIAM J. Numer. Anal. 19
(1982).  An accepted trial's flux serves the next check, so every solve
costs one flux evaluation.  fig2 takes 9-10 outer steps and fig3 6-9
(seeds 11 and 42).  At p = 0.5 F' > 0, so the equation is monotone; for
p > 0.5 F' < 0 wherever w^2 > epsilon/(2p - 1), and the rule failed to
converge on some inputs or reached other states, so there, at a lambda
estimate of 0 (where A is singular) and in 2D every step is the lagged
one.

When the noise norm delta is known (target_delta), core._iterate chooses
lambda by the discrepancy principle, ||u - u0|| = delta; adaptive_lambda is
its estimate on a given iterate.  fig5 at n=64 takes 11-13 outer steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .core import (_LAMBDA_INIT, Field2D, RunTrace, Signal1D, _iterate,
                   _lambda_estimate, require_count, require_finite,
                   require_same_grid)
from .grid_ops import (
    Stencil2DKind,
    apply_banded,
    build_d0,
    build_d1,
    build_lagged_1d,
    laplacian_2d_values,
    solve_banded,
)

# the largest target_delta whose square (core._lambda_estimate) is finite
_DELTA_MAX = float(np.sqrt(np.finfo(float).max))
_GMRES_VECTORS = 50  # 2D inner solve: Krylov vectors of its one GMRES cycle


class Solver(Enum):
    """Kept so that code passing FilterParams(solver=...) still runs; no
    member selects anything (see FilterParams)."""

    EXPLICIT_EULER = "explicit-euler"
    SEMI_IMPLICIT = "semi-implicit"


@dataclass(frozen=True)
class FilterParams:
    """Knobs of the nonlinear filter.

    lam is the fidelity weight; when target_delta (the known noise norm, in
    the plain sample 2-norm) is set it takes over: core._iterate chooses
    lam by the discrepancy principle, ||u - u0|| = target_delta.  lam = 0
    is a valid parameter set for evaluating rhs_1d/rhs_2d, but the
    denoisers need lam > 0 or target_delta.  In 1D and 2D alike, dt=None
    selects lagged diffusivity (see the module docstring), and a fixed dt
    takes explicit Euler steps of that size; stable_step_bound bounds a
    stable one.  Every path converges once the stationary residual r
    satisfies ||r|| <= 10 tol lam ||u - u0||, as for the TV baseline, and
    max_iters caps the corrections.  solver is accepted for compatibility
    and has no effect: dt alone chooses the path.  All float knobs must be
    finite, and target_delta at most sqrt(float max), about 1.34e154, so
    that its square is finite.

    For p > 1/2 the flux is not monotone (F' < 0 wherever
    w^2 > epsilon/(2p - 1)), so the stationary equation can have several
    solutions, and the path of the iteration picks one.  A 2D equilibrium
    at p >= 1 can then depend on the inner solves' tolerance: in three
    pure-noise stress cases (16x16 and 24x40 fields, p = 1 and 2), two
    states 0.85-1.71 apart (max-abs) both met the stop rule.
    """

    lam: float = 1.0
    epsilon: float = 1e-2
    p: float = 0.5
    dt: float | None = None
    max_iters: int = 200_000
    tol: float = 1e-6
    target_delta: float | None = None
    solver: Solver = Solver.EXPLICIT_EULER

    def __post_init__(self):
        require_finite(self, "lam", "epsilon", "p", "dt", "tol", "target_delta")
        require_count(self, "max_iters")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.p < 0.5:
            raise ValueError(f"flux exponent must be >= 0.5, got {self.p}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.target_delta is not None and not 0 < self.target_delta <= _DELTA_MAX:
            raise ValueError(f"target_delta must be > 0 and at most {_DELTA_MAX:.4g} "
                             f"(its square must be finite), got {self.target_delta}")


def flux(w, epsilon: float, p: float):
    """Curvature flux w / (w^2 + epsilon)^p: odd, bounded, saturating."""
    w = np.asarray(w, dtype=float)
    out = w / (w * w + epsilon) ** p
    return out if out.ndim else float(out)


def stable_step_bound(h: float, epsilon: float, p: float, lam: float) -> float:
    """Largest explicit-Euler step for the linearized worst case.

    Uses max |flux'| = epsilon^-p (attained at zero curvature) and the
    operator-norm bound ||D1|| * ||D0|| <= 16 / h^4.
    """
    return 2.0 / (16.0 * epsilon ** (-p) / h**4 + lam)


def _evaluator(shape: tuple[int, ...], h: float, params: FilterParams):
    """u -> (D, w): the filter's diffusion term D(u) = outer(F(w)) and
    w = inner(u), for the dimension's two Laplacians.

    inner has zero-slope ends and outer zero-value ends: D0 and D1 in 1D, the
    mirror and zero-boundary five-point stencils in 2D.  The lambdas look
    apply_banded and laplacian_2d_values up when called, and evaluate looks
    up flux, so a tracer that replaces them on this module sees every call.
    """
    if len(shape) == 1:
        d0, d1 = build_d0(shape[0], h), build_d1(shape[0], h)
        inner, outer = lambda x: apply_banded(d0, x), lambda x: apply_banded(d1, x)
    else:
        inner, outer = (
            lambda x: laplacian_2d_values(x, h, Stencil2DKind.NEUMANN_MIRROR),
            lambda x: laplacian_2d_values(x, h, Stencil2DKind.DIRICHLET_ZERO))

    def evaluate(u):
        w = inner(u)
        return outer(flux(w, params.epsilon, params.p)), w

    return evaluate


def rhs_1d(u: Signal1D, u0: Signal1D, params: FilterParams) -> np.ndarray:
    """-D1 F(u) - lam (u - u0) on the shared grid of u and u0."""
    require_same_grid(u, u0)
    diffusion, _ = _evaluator(u.values.shape, u.h, params)(u.values)
    return -diffusion - params.lam * (u.values - u0.values)


def rhs_2d(u: Field2D, u0: Field2D, params: FilterParams) -> Field2D:
    """2D evolution right-hand side: rhs_1d's formula, on a field."""
    return u.with_values(rhs_1d(u, u0, params))


def adaptive_lambda(u: Signal1D | Field2D, u0: Signal1D | Field2D,
                    params: FilterParams) -> float:
    """Fidelity weight from the equilibrium identity, as core._iterate
    estimates it on every adaptive check after the first.

    At equilibrium the diffusion term balances lam (u - u0), so
    lam = -<u - u0, diffusion(u)>_h / delta_h^2.  Both sides carry the same
    quadrature weight, which therefore cancels; target_delta is taken in the
    plain sample 2-norm, matching how noise levels are measured.
    """
    if params.target_delta is None:
        raise ValueError("adaptive lambda needs params.target_delta")
    require_same_grid(u, u0)
    diffusion, _ = _evaluator(u.values.shape, u.h, params)(u.values)
    return _lambda_estimate(u.values - u0.values, diffusion, params.target_delta)


def denoise_1d(u0: Signal1D, params: FilterParams) -> tuple[Signal1D, RunTrace]:
    """Find the equilibrium of the filter equation for the data u0.

    The path follows the rule of the module docstring: lagged diffusivity,
    or explicit Euler time steps for a fixed dt.  Runs are deterministic;
    see RunTrace for the trace.
    """
    if len(u0) < 3:
        raise ValueError(f"need at least 3 samples, got {len(u0)}")
    values, trace = _evolve(u0.values, u0.values.copy(), u0.h, params)
    return u0.with_values(values), trace


def denoise_2d(u0: Field2D, params: FilterParams,
               warm_start: Field2D | None = None) -> tuple[Field2D, RunTrace]:
    """2D analogue of denoise_1d; warm_start, when given, seeds the
    iteration in place of u0."""
    if u0.rows < 3 or u0.cols < 3:
        raise ValueError(f"need at least a 3x3 field, got {u0.rows}x{u0.cols}")
    if warm_start is not None:
        require_same_grid(warm_start, u0)
    start = (warm_start if warm_start is not None else u0).values.copy()
    values, trace = _evolve(u0.values, start, u0.h, params)
    return u0.with_values(values), trace


def _evolve(u0v: np.ndarray, u: np.ndarray, h: float,
            params: FilterParams) -> tuple[np.ndarray, RunTrace]:
    """core._iterate from u to the equilibrium of the data u0v, in either
    dimension: the one place that chooses the correction step.

    The loop evaluates D(u) by _evaluator on every path.  A fixed dt takes
    explicit Euler steps u <- u + dt r, and dt_used is that dt.  dt unset
    takes the lagged step, with the Newton step tried first in 1D at p = 0.5
    (see the module docstring).  step(u, w, lam, r, eta) returns the next
    iterate, for the lam and residual r it is handed, and core._iterate's
    pending.  solve(g, lam, r, eta) returns (an approximation of) A^-1 r for
    the frozen matrix A = outer diag(g) inner + lam I: banded LU in 1D,
    exact whatever eta asks, and _lagged_2d in 2D, to the relative residual
    eta.  The lagged step takes g = (w^2 + epsilon)^-p, so that F(w) = g w.
    At lam = 0 A is singular (L_N annihilates constants); core._iterate
    rejects a fixed lam = 0, and a lam estimate of 0 solves with
    _LAMBDA_INIT in its place, in both dimensions.  The Newton step takes
    g = F'(w), so that A is minus the Jacobian of r, and only at lam > 0.
    Its point u + delta is a trial, kept when the residual there is at most
    half of r, and the kept trial's (D, w) is the pending evaluation of the
    next check.
    """
    eps, p = params.epsilon, params.p
    evaluate = _evaluator(u.shape, h, params)
    if params.dt is not None:
        step = lambda u, w, lam, r, eta: (u + params.dt * r, None)
    else:
        solve = (_lagged_2d(u.shape, h) if u.ndim == 2 else
                 lambda g, lam, r, eta: solve_banded(build_lagged_1d(g, h, lam), r))
        newton = u.ndim == 1 and p == 0.5

        def step(u, w, lam, r, eta):
            if newton and lam > 0:
                trial = u + solve(eps * (w * w + eps) ** -1.5, lam, r, eta)
                d, w_trial = evaluate(trial)
                if np.linalg.norm(-d - lam * (trial - u0v)) \
                        <= 0.5 * np.linalg.norm(r):
                    return trial, (d, w_trial)
            # a zero lam estimate would leave the constant mode without a
            # pivot; the initial weight then stands in
            return u + solve((w * w + eps) ** -p, lam if lam > 0 else _LAMBDA_INIT,
                             r, eta), None

    u, trace = _iterate(u0v, u, params.tol, params.max_iters, params.lam,
                        params.target_delta, evaluate, step)
    return u, replace(trace, dt_used=params.dt)


def _d1_eigh(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (the DST-I sine basis) of the
    tridiagonal build_d1 matrix.  Their products along rows and columns
    diagonalize T and _lagged_2d's pivots max(g) T^2 + lam I, and
    _lagged_2d's GMRES runs on coefficients in them (see the module
    docstring)."""
    ab = build_d1(n, h)
    return scipy.linalg.eigh_tridiagonal(ab[1], ab[0, 1:])


def _gmres(matvec, b: np.ndarray, eta: float) -> np.ndarray:
    """One cycle of GMRES for A x = b from x = 0, with matvec applying A.

    Builds an orthonormal Krylov basis V of A (classical Gram-Schmidt,
    applied twice) and stops once the least-squares residual is at most
    eta ||b|| or _GMRES_VECTORS vectors are used; returns V y.  A right
    preconditioner P is the caller's: it hands over A P^-1 and maps the
    result back by P^-1.  eta is the forcing term of core._forcing_term
    (Eisenstat & Walker's choice 2).
    """
    beta = float(np.linalg.norm(b))
    m = _GMRES_VECTORS
    basis = np.empty((m + 1, b.size))
    basis[0] = b / beta
    hess = np.zeros((m, m))  # R: the Hessenberg columns after the rotations
    rotations = []  # Givens pairs (c, s), in Python floats like col and rhs
    rhs = [beta]
    size = 0
    for j in range(m):
        w = matvec(basis[j])
        col = 0.0  # so that a -0.0 coefficient enters R as +0.0
        for _ in range(2):
            coef = basis[: j + 1] @ w
            w -= coef @ basis[: j + 1]
            col = col + coef
        h_next = float(np.linalg.norm(w))
        col = col.tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        radius = float(np.hypot(col[j], h_next))
        if radius == 0.0:  # A is singular on the Krylov space
            break
        c, s = col[j] / radius, h_next / radius
        rotations.append((c, s))
        col[j] = radius
        hess[: j + 1, j] = col
        rhs[j:] = c * rhs[j], -s * rhs[j]
        size = j + 1
        if abs(rhs[j + 1]) <= eta * beta or h_next == 0.0:
            break
        np.divide(w, h_next, out=basis[j + 1])
    y = scipy.linalg.solve_triangular(hess[:size, :size], rhs[:size],
                                      check_finite=False)
    return y @ basis[:size]


def _lagged_2d(shape: tuple[int, int], h: float):
    """The 2D inner solve: one cycle of GMRES on sine-basis coefficients, to
    the relative residual eta.

    With Q = q_r (x) q_c, Lambda = mu_i + nu_j the spectrum of T and
    D = max(g) Lambda^2 + lam the pivots, it solves
    A_hat = Lambda Q^T diag(R g) Q Lambda D^-1 + lam D^-1 for z_hat from
    r_hat = Q^T r and returns Q D^-1 z_hat: right-preconditioned GMRES on
    A P^-1 with P^-1 = Q D^-1 Q^T, in the coefficients.  A matvec is four
    dense products and no stencil.  A square field shares one D1
    eigenbasis between its rows and columns.
    """
    eigh = {n: _d1_eigh(n, h) for n in set(shape)}
    (mu, q_r), (nu, q_c) = (eigh[n] for n in shape)
    spectrum = mu[:, None] + nu[None, :]  # of T

    def solve(g, lam, r, eta):
        pivots = float(g.max()) * spectrum ** 2 + lam
        # Lambda D^-1, lam D^-1 and R g
        scale, shift, weight = spectrum / pivots, lam / pivots, np.pad(g[1:-1, 1:-1], 1)

        def matvec(y):
            y = y.reshape(shape)
            x = spectrum * (q_r.T @ (weight * (q_r @ (scale * y) @ q_c.T)) @ q_c)
            x += shift * y
            return x.ravel()

        z = _gmres(matvec, (q_r.T @ r @ q_c).ravel(), eta).reshape(shape)
        return q_r @ (z / pivots) @ q_c.T

    return solve
