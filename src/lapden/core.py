"""Shared value types (sampled signals, sampled fields, run diagnostics) and
the one iteration loop that every solver runs: the nonlinear filter, in 1D
and 2D, by lagged diffusivity or by explicit Euler steps, and the TV
baseline, by primal-dual Newton steps.

Each method is the equilibrium of an evolution equation
du/dt = -D(u) - lam (u - u0), and supplies only its diffusion term D(u)
(nonlinear filter: L_D F(L_N u); TV: -div(grad u / |grad u|_beta)) and its
step rule, which returns the next iterate.  The loop forms the stationary
residual r = -D(u) - lam (u - u0), runs the stop rule and, when the noise
norm delta is known, chooses lam by the discrepancy principle (_iterate)."""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np


class DivergenceError(ArithmeticError):
    """Raised when an evolution produces non-finite values."""


def require_finite(params, *names: str) -> None:
    """Reject a parameter set whose named float fields are nan or +-inf
    (None, for an unset optional field, passes)."""
    for name in names:
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_count(params, name: str) -> None:
    """Reject a parameter set whose named field is not an integer >= 1
    (numpy integers pass)."""
    value = getattr(params, name)
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def require_same_grid(u: Signal1D | Field2D, u0: Signal1D | Field2D) -> None:
    """Reject a pair of signals or fields that are not sampled on one grid."""
    if u.values.shape != u0.values.shape or u.h != u0.h:
        kind = "signals" if u.values.ndim == 1 else "fields"
        raise ValueError(f"{kind} disagree: {u.values.shape} at h={u.h} vs "
                         f"{u0.values.shape} at h={u0.h}")


def _as_float_array(values, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise ValueError(f"samples must be finite, got {arr[index]} at index "
                         f"{index[0] if ndim == 1 else index}")
    return arr


@dataclass(frozen=True)
class Signal1D:
    """A real-valued function sampled on an equispaced grid.

    The samples live at x = a + (i+1)*h for i = 0..len-1; the two nodes at the
    ends of ``domain`` are ghost positions slaved to the first/last sample by
    the zero-slope boundary condition, so (b - a) == (len + 1) * h, and both
    must be finite.

    By default h = 1 (grid units) and the domain is (-1, len); pass a physical
    spacing and domain to work in physical units.
    """

    values: np.ndarray
    h: float = 1.0
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_array(self.values, 1))
        if self.values.size < 2:
            raise ValueError("Signal1D needs at least 2 samples")
        if not 0 < self.h < math.inf:
            raise ValueError(f"grid spacing must be positive, got {self.h}")
        if self.domain is None:
            object.__setattr__(self, "domain", (-self.h, self.values.size * self.h))
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"domain ends must be finite, got ({a}, {b})")
        expected = (self.values.size + 1) * self.h
        if abs((b - a) - expected) > 1e-9 * expected:
            raise ValueError(
                f"domain ({a}, {b}) inconsistent with {self.values.size} samples "
                f"at spacing {self.h}"
            )

    def __len__(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "Signal1D":
        """Same grid, new samples."""
        return Signal1D(values, self.h, self.domain)


@dataclass(frozen=True)
class Field2D:
    """A real-valued function sampled on a uniform rectangular grid, row-major."""

    values: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_array(self.values, 2))
        if self.values.size < 1:
            raise ValueError("Field2D must not be empty")
        if not 0 < self.h < math.inf:
            raise ValueError(f"grid spacing must be positive, got {self.h}")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "Field2D":
        return Field2D(values, self.h)


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration diagnostics of an evolution run (core._iterate).

    Entry k describes the k-th iterate u_k that the stop rule checked: u_0 is
    the starting state (the data, or the warm start) and the last entry is
    the returned iterate and the lam it was checked with, so iters_run is
    one more than the number of corrections taken.
    residual_history[k] is the stationary residual ||r(u_k)||, with
    r = -D(u) - lam (u - u0) for the method's diffusion term D (see the
    module docstring), fidelity_history[k] is ||u_k - u0|| and
    lambda_history[k] the lam of that check: the fixed lam, or in adaptive
    mode _LAMBDA_INIT at k = 0 and the estimate from u_k after that (the
    correction steps then take a lam of their own, which is not recorded).
    dt_used is the dt of an explicit Euler run, and None for the paths that
    take no time step (lagged diffusivity, primal-dual Newton).
    """

    iters_run: int
    residual_history: np.ndarray
    fidelity_history: np.ndarray
    lambda_history: np.ndarray
    dt_used: float | None
    converged: bool
    wall_seconds: float = field(compare=False, default=0.0)

    def __post_init__(self):
        for name in ("residual_history", "fidelity_history", "lambda_history"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        lengths = {
            self.residual_history.size,
            self.fidelity_history.size,
            self.lambda_history.size,
        }
        if lengths != {self.iters_run}:
            raise ValueError("trace histories must all have length iters_run")


def _stationary_ok(stat_norm: float, lam: float, fid_dist: float, tol: float,
                   norm_u0: float) -> bool:
    # converged runs certify the stationary equation; an anchor at round-off
    # scale (exact equilibria, adaptive lam estimates near 0) falls back to
    # an absolute bound
    anchor = lam * fid_dist
    if anchor > 1e-13 * max(norm_u0, 1.0):
        return stat_norm <= 10.0 * tol * anchor
    return stat_norm <= tol * max(norm_u0, 1.0)


# the forcing terms eta of the 2D inner solves (nonlinear filter: GMRES, TV:
# CG), which stop at ||b - A x|| <= eta ||b||: Eisenstat & Walker's choice 2,
# "Choosing the forcing terms in an inexact Newton method", SIAM J. Sci.
# Comput. 17 (1996), for the inexact Newton steps of Dembo, Eisenstat &
# Steihaug, SIAM J. Numer. Anal. 19 (1982); see _forcing_term
_ETA_FIRST = 1e-2  # the first correction's eta, before any ratio exists
_ETA_GAMMA = 0.9
_ETA_ALPHA = 2.0
_ETA_MAX = 0.3


def _forcing_term(stat: float, prev: tuple[float, float] | None,
                  slack: float) -> float:
    """The relative tolerance eta of the inner solve of one correction.

    stat is ||r_k|| of the iterate the correction starts from, prev the
    (||r_{k-1}||, eta_{k-1}) of the correction before it (None for the
    first, which takes _ETA_FIRST) and slack = 5 tol lam ||u - u0||, half
    the stop rule's bound.  Eisenstat & Walker's choice 2 takes
    eta = gamma (||r_k|| / ||r_{k-1}||)^alpha, at least gamma eta_{k-1}^alpha
    when that exceeds 0.1, and at most _ETA_MAX: the inner solve is loose
    while ||r|| falls slowly and tightens as the outer iteration speeds up.
    The floor slack / ||r_k|| comes last, so that the last solve does not
    solve past the stop rule; it stays below 1/2, since a correction is
    taken only while ||r_k|| exceeds twice the slack.
    """
    if prev is None:
        eta = _ETA_FIRST
    else:
        stat_prev, eta_prev = prev
        eta = _ETA_GAMMA * (stat / stat_prev) ** _ETA_ALPHA
        safeguard = _ETA_GAMMA * eta_prev ** _ETA_ALPHA
        if safeguard > 0.1:
            eta = max(eta, safeguard)
        eta = min(eta, _ETA_MAX)
    return max(eta, slack / stat)


# the adaptive lam of _iterate: Morozov's discrepancy principle (Soviet
# Math. Dokl. 7, 1966), which chooses lam so that ||u - u0|| = delta
_LAMBDA_INIT = 1.0  # the lam of the first check, before any estimate
_DELTA_FLOOR = 1e-30
_SECANT_CAP = 10.0  # longest secant step on log lam, in fixed-point steps


def _lambda_estimate(du: np.ndarray, diffusion: np.ndarray,
                     target_delta: float) -> float:
    """-<u - u0, D(u)> / delta^2, clipped at zero: at an equilibrium
    D(u) = -lam (u - u0) with ||u - u0|| = delta, this is lam."""
    est = -float(np.sum(du * diffusion)) / max(target_delta**2, _DELTA_FLOOR)
    return max(est, 0.0)


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


def _iterate(u0v: np.ndarray, u: np.ndarray, tol: float, max_iters: int,
             lam: float, target_delta: float | None, diffusion,
             step) -> tuple[np.ndarray, RunTrace]:
    """The iteration from u to the equilibrium D(u) = -lam (u - u0) of the
    data u0v, for every path.

    diffusion(u) returns (D, frozen): the method's diffusion term D(u) and
    the state that step needs.  The loop forms the stationary residual
    r = -D - lam (u - u0) and converges once ||r|| <= 10 tol lam ||u - u0||;
    it stops unconverged after max_iters corrections (see RunTrace for what
    is recorded).

    With target_delta None lam is fixed, and must be > 0 for both methods:
    at lam = 0 nothing pulls u toward the data, so a ValueError is raised
    before the first check.  Otherwise lam follows Morozov's discrepancy
    principle, ||u - u0|| = delta: the first check takes _LAMBDA_INIT and
    every later one the estimate of the iterate it checks
    (_lambda_estimate, from the equilibrium identity).  The stop rule and
    the trace see that estimate, and certifying the stationary equation at
    it forces ||u - u0|| = delta.  A correction runs at its own lam from
    _step_lambda, which drives f = log lam_est - log lam_step to zero by a
    safeguarded secant, where taking lam_step = lam_est (the fixed point)
    would converge only linearly, and solves with the residual formed at
    that lam, r + (lam_est - lam_step)(u - u0).

    step(u, frozen, lam, r, eta) returns (u_next, pending): the next
    iterate, u + A^-1 r for the operator A formed at u (lagged diffusivity,
    primal-dual Newton) or u + dt r (explicit Euler), and the (D, frozen)
    of u_next when the step has formed it already (an accepted trial point),
    else None.  The next check uses pending in place of diffusion(u_next).
    An inexact inner solve of A^-1 r stops at the relative residual eta, the
    forcing term of _forcing_term; exact solves and explicit steps ignore
    it.
    """
    adaptive = target_delta is not None
    if not adaptive and not lam > 0:
        raise ValueError(f"lam must be > 0 without a noise target (the "
                         f"fidelity weight must be positive), got {lam}")
    norm_u0 = float(np.linalg.norm(u0v))
    rows = []
    t0 = time.perf_counter()
    converged = False
    prev = None  # (||r||, eta) of the last correction
    state = None  # what _step_lambda carries from one correction to the next
    pending = None  # the (D, frozen) of u, when the step formed it

    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 2):
            d, frozen = pending or diffusion(u)
            du = u - u0v
            if adaptive:
                lam = (_lambda_estimate(du, d, target_delta) if it > 1
                       else _LAMBDA_INIT)
            r = -d - lam * du
            stat = float(np.linalg.norm(r))
            if not math.isfinite(stat):
                raise DivergenceError(f"non-finite values at iteration {it}")
            fid = float(np.linalg.norm(du))
            rows.append((stat, fid, lam))
            converged = _stationary_ok(stat, lam, fid, tol, norm_u0)
            if converged or it > max_iters:
                break
            eta = _forcing_term(stat, prev, 5.0 * tol * lam * fid)
            prev = stat, eta
            if adaptive:  # the next check re-estimates lam
                lam_step, state = _step_lambda(lam, state)
                lam, r = lam_step, r + (lam - lam_step) * du
            u, pending = step(u, frozen, lam, r, eta)

    return u, RunTrace(len(rows), *np.array(rows).T, dt_used=None,
                       converged=converged,
                       wall_seconds=time.perf_counter() - t0)
