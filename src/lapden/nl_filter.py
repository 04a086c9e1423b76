"""The nonlinear Laplacian filter.

Finds the equilibrium of du/dt = -D1 F(u) - lambda (u - u0) in 1D (and of
the double-Laplacian analogue in 2D), which solves the fourth-order
stationary filter equation.  F saturates large curvature, so
discontinuities survive while oscillatory noise is diffused away.

Both dimensions take their pair of Laplacians from one place (_laplacians)
and run one loop, _iterate_filter on core._iterate, which the TV baseline
runs too.  _iterate_filter forms the stationary residual r; the paths
differ only in the correction step, and _evolve alone chooses it.  A fixed
time step, or lambda = 0 without a noise target, takes explicit Euler steps
u <- u + dt r (_explicit).  Otherwise the equilibrium is reached without
time stepping, by the lagged-diffusivity fixed point of Vogel & Oman,
"Iterative methods for total variation denoising", SIAM J. Sci. Comput. 17
(1996): writing F(w) = g(w) w with g = (w^2 + epsilon)^-p > 0, each outer
step freezes g at w = L_N u and takes u <- u + A^-1 r with
A = L_D diag(g) L_N + lambda I.  L_N and L_D are the dimension's zero-slope
and zero-value Laplacians: D0 and D1 in 1D, five-point stencils in 2D.
Only the inner solve differs between the dimensions.  In 1D A is
pentadiagonal, is written band by band in closed form
(grid_ops.build_lagged_1d) and is solved exactly by banded LU (_lagged_1d).
In 2D A is too large for that and non-symmetric (the mirror and
zero-boundary Laplacians differ), so A^-1 r is approximated by one cycle of
right-preconditioned GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
1986), matrix-free, preconditioned by max(g) (L_row + L_col)^2 + lambda I
(_lagged_2d).  That preconditioner is diagonal in the eigenbases of the row
and column zero-slope Laplacians D0 (_d0_eigh, by
scipy.linalg.eigh_tridiagonal); it is applied by dense matrix products with
those two bases, not by a fast transform.  GMRES stops at the relative
residual eta that core._iterate chooses for each correction by Eisenstat &
Walker's choice 2 ("Choosing the forcing terms in an inexact Newton
method", SIAM J. Sci. Comput. 17, 1996; core._forcing_term).

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
converge on some inputs or reached other states, so there, at lambda = 0
(where A is singular) and in 2D every step is the lagged one.

When the noise norm delta is known, lambda is chosen by Morozov's
discrepancy principle (Soviet Math. Dokl. 7, 1966), so that
||u - u0|| = delta.  Every checked iterate re-estimates lambda from the
equilibrium identity (adaptive_lambda), and the stop rule certifies the
stationary equation at that estimate, which forces ||u - u0|| = delta.  The
correction steps take their lambda from a safeguarded secant on log lambda
(_step_lambda) instead of the estimate itself, which would converge only
linearly; fig5 at n=64 takes about 14 outer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .core import (Field2D, RunTrace, Signal1D, _iterate, require_count,
                   require_finite, require_same_grid)
from .grid_ops import (
    Stencil2DKind,
    apply_banded,
    build_d0,
    build_d1,
    build_lagged_1d,
    laplacian_2d_values,
    solve_banded,
)

_LAMBDA_INIT = 1.0  # first-step fidelity weight before the adaptive estimate kicks in
_SAFETY = 0.9
_DELTA_FLOOR = 1e-30
_GMRES_VECTORS = 50  # 2D inner solve: Krylov vectors of its one GMRES cycle
_SECANT_CAP = 10.0  # longest secant step on log lam, in fixed-point steps


class Solver(Enum):
    """Kept so that code passing FilterParams(solver=...) still runs; no
    member selects anything (see FilterParams)."""

    EXPLICIT_EULER = "explicit-euler"
    SEMI_IMPLICIT = "semi-implicit"


@dataclass(frozen=True)
class FilterParams:
    """Knobs of the nonlinear filter.

    lam is the fidelity weight; when target_delta (the known noise norm, in
    the plain sample 2-norm) is set it takes over: every checked iterate
    re-estimates lam, and the correction steps move their own lam toward the
    estimate by a safeguarded secant (see the module docstring).  In 1D and
    2D alike, dt=None with lam > 0 or target_delta set selects lagged
    diffusivity (see the module docstring), and a fixed dt, or lam = 0
    without target_delta, takes explicit Euler steps of that size (a safe
    fraction of stable_step_bound when dt is None, smaller in 2D than in 1D;
    see _explicit).  Every path converges once the stationary residual r
    satisfies ||r|| <= 10 tol lam ||u - u0||, as for the TV baseline, and
    max_iters caps the corrections.  solver is accepted for compatibility
    and has no effect: dt, lam and target_delta choose the path.  All float
    knobs must be finite.
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
        if self.target_delta is not None and not self.target_delta > 0:
            raise ValueError(f"target_delta must be > 0, got {self.target_delta}")


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


def _laplacians(shape: tuple[int, ...], h: float):
    """The dimension's two Laplacians (inner, outer), as functions of an array.

    inner has zero-slope ends and outer zero-value ends: D0 and D1 in 1D, the
    mirror and zero-boundary five-point stencils in 2D.  The lambdas look
    apply_banded and laplacian_2d_values up when called, so a tracer that
    replaces them on this module sees every call.
    """
    if len(shape) == 1:
        d0, d1 = build_d0(shape[0], h), build_d1(shape[0], h)
        return lambda x: apply_banded(d0, x), lambda x: apply_banded(d1, x)
    return (lambda x: laplacian_2d_values(x, h, Stencil2DKind.NEUMANN_MIRROR),
            lambda x: laplacian_2d_values(x, h, Stencil2DKind.DIRICHLET_ZERO))


def _diffusion(values: np.ndarray, h: float, epsilon: float, p: float) -> np.ndarray:
    """outer(F(inner(u))): the stationary equation's diffusion term."""
    inner, outer = _laplacians(values.shape, h)
    return outer(flux(inner(values), epsilon, p))


def rhs_1d(u: Signal1D, u0: Signal1D, params: FilterParams) -> np.ndarray:
    """-D1 F(u) - lam (u - u0) on the shared grid of u and u0."""
    require_same_grid(u, u0)
    diffusion = _diffusion(u.values, u.h, params.epsilon, params.p)
    return -diffusion - params.lam * (u.values - u0.values)


def rhs_2d(u: Field2D, u0: Field2D, params: FilterParams) -> Field2D:
    """2D evolution right-hand side; see rhs_1d for the 1D analogue."""
    require_same_grid(u, u0)
    diffusion = _diffusion(u.values, u.h, params.epsilon, params.p)
    return u.with_values(-diffusion - params.lam * (u.values - u0.values))


def adaptive_lambda(u: Signal1D | Field2D, u0: Signal1D | Field2D,
                    params: FilterParams) -> float:
    """Fidelity weight from the equilibrium identity.

    At equilibrium the diffusion term balances lam (u - u0), so
    lam = -<u - u0, diffusion(u)>_h / delta_h^2.  Both sides carry the same
    quadrature weight, which therefore cancels; target_delta is taken in the
    plain sample 2-norm, matching how noise levels are measured.
    """
    if params.target_delta is None:
        raise ValueError("adaptive lambda needs params.target_delta")
    require_same_grid(u, u0)
    diffusion = _diffusion(u.values, u.h, params.epsilon, params.p)
    return _lambda_estimate(u.values - u0.values, diffusion, params.target_delta)


def _lambda_estimate(du: np.ndarray, diffusion: np.ndarray,
                     target_delta: float) -> float:
    # -<u - u0, diffusion> / delta^2, clipped at zero; see adaptive_lambda
    est = -float(np.sum(du * diffusion)) / max(target_delta**2, _DELTA_FLOOR)
    return max(est, 0.0)


def denoise_1d(u0: Signal1D, params: FilterParams) -> tuple[Signal1D, RunTrace]:
    """Find the equilibrium of the filter equation for the data u0.

    The path follows the rule of the module docstring: lagged diffusivity,
    or explicit Euler time steps for a fixed dt or lam = 0 without
    target_delta.  Runs are deterministic; see RunTrace for the trace.
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
    if warm_start is not None and (
        warm_start.values.shape != u0.values.shape or warm_start.h != u0.h
    ):
        raise ValueError("warm start grid does not match the data grid")
    start = (warm_start if warm_start is not None else u0).values.copy()
    values, trace = _evolve(u0.values, start, u0.h, params)
    return u0.with_values(values), trace


def _evolve(u0v: np.ndarray, u: np.ndarray, h: float,
            params: FilterParams) -> tuple[np.ndarray, RunTrace]:
    """From u to the equilibrium of the data u0v, in either dimension: the
    one place that chooses the correction step.

    dt unset with lam > 0 or target_delta set takes the lagged step, with
    the Newton step tried first in 1D at p = 0.5 (see the module
    docstring); everything else takes explicit Euler steps.  At lam = 0 the
    frozen matrix is singular (L_N annihilates constants), so a fixed
    lam = 0 has no lagged step, and a lam estimate of 0 solves with
    _LAMBDA_INIT in its place, in both dimensions.  solve(g, lam, r, eta),
    from _lagged_1d or _lagged_2d, returns (an approximation of) A^-1 r for
    the frozen matrix A = outer diag(g) inner + lam I, exact in 1D and to
    the relative residual eta in 2D: the lagged step takes
    g = (w^2 + epsilon)^-p, so that F(w) = g w, and the Newton step
    g = F'(w), so that A is minus the Jacobian of r.
    """
    if params.dt is not None or (params.target_delta is None and params.lam == 0):
        return _explicit(u0v, u, h, params)
    eps, p = params.epsilon, params.p
    solve = _lagged_1d(h) if u.ndim == 1 else _lagged_2d(u.shape, h)
    newton = None
    if u.ndim == 1 and p == 0.5:
        def newton(w, lam, r, eta):
            return solve(eps * (w * w + eps) ** -1.5, lam, r, eta)

    def lagged(w, lam, r, eta):
        # a zero lam estimate would leave the constant mode without a pivot;
        # the initial weight then stands in
        return solve((w * w + eps) ** -p, lam if lam > 0 else _LAMBDA_INIT,
                     r, eta)

    return _iterate_filter(u0v, u, h, params, lagged, newton)


def _step_lambda(lam_est: float, state) -> tuple[float, tuple | None]:
    """The lam of the next correction, from the lam_est of the iterate it
    corrects, and the state for the next call; state is None at the start.

    state holds x = log lam of the last step and the (x, f) pair of the step
    before it (None if there is none), with f = log lam_est - x.  The
    fixed-point step x + f sets lam to lam_est; the first step, and a step at
    lam_est = 0, which also starts the history over, take it.  The secant
    through the last pair and (x, f) replaces it when it points the same way
    as f, shortened to at most _SECANT_CAP |f|.
    """
    if state is None or lam_est == 0.0:
        return lam_est, ((math.log(lam_est), None) if lam_est > 0 else None)
    x, prev = state
    f = math.log(lam_est) - x
    if prev is not None and f != prev[1]:
        move = -f * (x - prev[0]) / (f - prev[1])
        if move * f > 0:
            x_next = x + math.copysign(min(abs(move), _SECANT_CAP * abs(f)), f)
            return math.exp(x_next), (x_next, (x, f))
    return lam_est, (x + f, (x, f))


def _iterate_filter(u0v: np.ndarray, u: np.ndarray, h: float,
                    params: FilterParams, step,
                    newton=None) -> tuple[np.ndarray, RunTrace]:
    """core._iterate from u to the equilibrium of the data u0v, on the
    filter's stationary residual r = -outer(F(w)) - lam (u - u0), w = inner(u).

    inner and outer are the dimension's _laplacians, and F(w) goes through
    flux, so that r is bit for bit rhs_1d's / rhs_2d's.  In adaptive mode the
    first check uses _LAMBDA_INIT and every later one re-estimates lam from
    the iterate it checks (lam_est): the stop rule and the trace see
    lam_est.  The correction runs at its own lam_step from _step_lambda,
    which drives f = log lam_est - log lam_step to zero by a safeguarded
    secant, where taking lam_step = lam_est (the fixed point) would converge
    only linearly; it solves with the residual formed at lam_step,
    r + (lam_est - lam_step)(u - u0).  At a fixed lam the correction solves
    with r itself.

    step(w, lam, r, eta) and newton(w, lam, r, eta) return a correction
    delta, eta being core._iterate's forcing term.  When
    newton is given and lam > 0 (at lam = 0 the Jacobian is singular), its
    delta is a trial, kept when the residual at u + delta, formed by the same
    evaluate as every checked residual, is at most half of r; otherwise step
    corrects.  A kept trial's (w, diffusion) serves the next check:
    core._iterate forms that iterate as u + delta too, so the check stays
    bit for bit rhs_1d's.
    """
    inner, outer = _laplacians(u.shape, h)
    adaptive = params.target_delta is not None
    lam0 = _LAMBDA_INIT if adaptive else params.lam
    state = None  # what _step_lambda carries from one correction to the next
    kept = None  # a kept trial's (w, diffusion), for the check at u + delta

    def evaluate(u):
        w = inner(u)
        return w, outer(flux(w, params.epsilon, params.p))

    def residual(u, it):
        nonlocal kept
        (w, diffusion), kept = kept or evaluate(u), None
        lam = lam0
        du = u - u0v
        if adaptive and it > 1:
            lam = _lambda_estimate(du, diffusion, params.target_delta)
        return -diffusion - lam * du, lam, (u, w, du)

    def correction(frozen, lam, r, eta):
        nonlocal state, kept
        u, w, du = frozen
        if adaptive:
            lam_step, state = _step_lambda(lam, state)
            lam, r = lam_step, r + (lam - lam_step) * du
        if newton is not None and lam > 0:
            delta = newton(w, lam, r, eta)
            trial = u + delta
            w_t, diffusion = evaluate(trial)
            if np.linalg.norm(-diffusion - lam * (trial - u0v)) \
                    <= 0.5 * np.linalg.norm(r):
                kept = w_t, diffusion
                return delta
        return step(w, lam, r, eta)

    return _iterate(u0v, u, params.tol, params.max_iters, residual, correction)


def _explicit(u0v: np.ndarray, u: np.ndarray, h: float,
              params: FilterParams) -> tuple[np.ndarray, RunTrace]:
    """Explicit Euler time steps u <- u + dt r from u to the equilibrium of
    the data u0v.

    The step is params.dt, or else a safety factor times stable_step_bound
    at the current lam: _SAFETY in 1D, and a quarter of it in 2D, where the
    five-point operators have twice the 1D norm.  dt_used is the step at the
    last recorded lam.
    """
    safety = _SAFETY / 4 ** (u.ndim - 1)

    def dt(lam):
        return params.dt or safety * stable_step_bound(h, params.epsilon, params.p, lam)

    u, trace = _iterate_filter(u0v, u, h, params,
                               lambda w, lam, r, eta: dt(lam) * r)
    return u, replace(trace, dt_used=float(dt(trace.lambda_history[-1])))


def _d0_eigh(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (the DCT-II basis) of the
    tridiagonal build_d0 matrix."""
    ab = build_d0(n, h)
    return scipy.linalg.eigh_tridiagonal(ab[1], ab[0, 1:])


def _gmres(matvec, precond, b: np.ndarray, eta: float) -> np.ndarray:
    """One cycle of right-preconditioned GMRES for A x = b from x = 0.

    Builds an orthonormal Krylov basis of A P^-1 (classical Gram-Schmidt,
    applied twice) and stops once the least-squares residual is at most
    eta ||b|| or _GMRES_VECTORS vectors are used; returns P^-1 V y.  eta is
    the forcing term of core._forcing_term (Eisenstat & Walker's choice 2).
    """
    beta = float(np.linalg.norm(b))
    m = _GMRES_VECTORS
    basis = np.empty((m + 1, b.size))
    basis[0] = b / beta
    hess = np.zeros((m + 1, m))  # turned into R by the Givens rotations
    rotations = np.zeros((m, 2))
    rhs = np.zeros(m + 1)
    rhs[0] = beta
    size = 0
    for j in range(m):
        w = matvec(precond(basis[j]))
        for _ in range(2):
            coef = basis[: j + 1] @ w
            w -= coef @ basis[: j + 1]
            hess[: j + 1, j] += coef
        h_next = float(np.linalg.norm(w))
        col = hess[:, j]
        for i in range(j):
            c, s = rotations[i]
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        radius = float(np.hypot(col[j], h_next))
        if radius == 0.0:  # A P^-1 is singular on the Krylov space
            break
        c, s = col[j] / radius, h_next / radius
        rotations[j] = c, s
        col[j] = radius
        rhs[j + 1] = -s * rhs[j]
        rhs[j] *= c
        size = j + 1
        if abs(rhs[j + 1]) <= eta * beta or h_next == 0.0:
            break
        basis[j + 1] = w / h_next
    y = scipy.linalg.solve_triangular(hess[:size, :size], rhs[:size],
                                      check_finite=False)
    return precond(y @ basis[:size])


def _lagged_1d(h: float):
    """The 1D inner solve: A = D1 diag(g) D0 + lam I is pentadiagonal and is
    solved exactly, whatever eta asks."""
    return lambda g, lam, r, eta: solve_banded(build_lagged_1d(g, h, lam), r)


def _lagged_2d(shape: tuple[int, int], h: float):
    """The 2D inner solve: one cycle of preconditioned GMRES, to the relative
    residual eta."""
    inner, outer = _laplacians(shape, h)
    (mu, q_r), (nu, q_c) = (_d0_eigh(n, h) for n in shape)
    squared = (mu[:, None] + nu[None, :]) ** 2  # spectrum of (L_row + L_col)^2

    def solve(g, lam, r, eta):
        pivots = float(g.max()) * squared + lam

        def precond(x):
            x = q_r.T @ x.reshape(shape) @ q_c
            return (q_r @ (x / pivots) @ q_c.T).ravel()

        def matvec(x):
            x = x.reshape(shape)
            return (outer(g * inner(x)) + lam * x).ravel()

        return _gmres(matvec, precond, r.ravel(), eta).reshape(shape)

    return solve
