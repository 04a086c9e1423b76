"""Shared value types (sampled signals, sampled fields, run diagnostics) and
the lagged-diffusivity loop shared by the nonlinear filter, in 1D and 2D, and
the TV baseline."""

from __future__ import annotations

import math
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
    the zero-slope boundary condition, so (b - a) == (len + 1) * h.

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
    """Per-iteration diagnostics of an evolution run.

    Two loops produce it, with different conventions.

    Time stepping (nl_filter._explicit: explicit Euler for the nonlinear
    filter with a fixed dt, or with lam = 0 and no target_delta) records
    entry k after step k: residual_history[k] is the update rate
    ||u_{k+1} - u_k|| / dt, fidelity_history[k] is ||u_{k+1} - u0||,
    lambda_history[k] the fidelity weight used for step k,
    energy_history[k] a discrete energy proxy (monitored as a diagnostic
    only; the semi-discrete system is not an exact gradient flow), and
    dt_used the last step size.

    Lagged diffusivity (_lagged: the TV baseline, and the nonlinear filter
    in 1D and 2D otherwise; no time step) records entry k before step k: it
    describes the k-th iterate u_k that the stop rule checked, with u_0 the
    starting state (the data, or the warm start) and the last entry the
    returned iterate and the lam it was certified with.
    residual_history[k] is the stationary residual ||r(u_k)|| (TV:
    r = div(grad u / |grad u|_beta) - lam (u - u0); nonlinear filter:
    r = -L_D F(L_N u) - lam (u - u0)), fidelity_history[k] is ||u_k - u0||,
    lambda_history[k] the lam of that check (re-estimated from u_k in
    adaptive mode), energy_history[k] the regularized ROF energy of u_k (a
    per-axis proxy in 2D) or the nonlinear filter's energy proxy, and
    dt_used is None.
    """

    iters_run: int
    residual_history: np.ndarray
    fidelity_history: np.ndarray
    lambda_history: np.ndarray
    energy_history: np.ndarray
    dt_used: float | None
    converged: bool
    wall_seconds: float = field(compare=False, default=0.0)

    def __post_init__(self):
        for name in ("residual_history", "fidelity_history", "lambda_history",
                     "energy_history"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        lengths = {
            self.residual_history.size,
            self.fidelity_history.size,
            self.lambda_history.size,
            self.energy_history.size,
        }
        if lengths != {self.iters_run}:
            raise ValueError("trace histories must all have length iters_run")


class _Recorder:
    """Accumulates per-step diagnostics and builds the RunTrace."""

    def __init__(self):
        self.residuals = []
        self.fidelities = []
        self.lambdas = []
        self.energies = []
        self.t0 = time.perf_counter()

    def record(self, residual, fidelity, lam, energy):
        self.residuals.append(residual)
        self.fidelities.append(fidelity)
        self.lambdas.append(lam)
        self.energies.append(energy)

    def finish(self, dt: float | None, converged: bool) -> RunTrace:
        return RunTrace(
            iters_run=len(self.residuals),
            residual_history=np.array(self.residuals),
            fidelity_history=np.array(self.fidelities),
            lambda_history=np.array(self.lambdas),
            energy_history=np.array(self.energies),
            dt_used=dt,
            converged=converged,
            wall_seconds=time.perf_counter() - self.t0,
        )


def _stationary_ok(stat_norm: float, lam: float, fid_dist: float, tol: float,
                   norm_u0: float) -> bool:
    # converged runs must certify the stationary equation, not just a small
    # update rate; an anchor at round-off scale (exact equilibria, lam = 0)
    # falls back to an absolute bound
    anchor = lam * fid_dist
    if anchor > 1e-13 * max(norm_u0, 1.0):
        return stat_norm <= 10.0 * tol * anchor
    return stat_norm <= tol * max(norm_u0, 1.0)


def _lagged(u0v: np.ndarray, u: np.ndarray, h: float, tol: float,
            max_iters: int, residual, solve) -> tuple[np.ndarray, RunTrace]:
    """Lagged-diffusivity fixed point from u to the equilibrium of the data u0v.

    residual(u, it) returns (r, lam, regularizer_energy, frozen): the
    stationary residual r at u, the fidelity weight it was formed with, the
    regularizer's energy at u, and the frozen state that solve needs.
    solve(frozen, lam, r) returns A^-1 r for the operator A frozen at u, and
    u <- u + A^-1 r is the correction step.  The run converges once
    ||r|| <= 10 tol lam ||u - u0|| (see RunTrace for what is recorded).
    """
    norm_u0 = float(np.linalg.norm(u0v))
    cell = h ** u.ndim
    rec = _Recorder()
    converged = False

    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            r, lam, energy, frozen = residual(u, it)
            stat = float(np.linalg.norm(r))
            if not math.isfinite(stat):
                raise DivergenceError(f"non-finite values at iteration {it}")
            fid = float(np.linalg.norm(u - u0v))
            rec.record(stat, fid, lam, energy + 0.5 * lam * fid * fid * cell)
            converged = _stationary_ok(stat, lam, fid, tol, norm_u0)
            if converged or it == max_iters:
                break
            u = u + solve(frozen, lam, r)

    return u, rec.finish(None, converged)
