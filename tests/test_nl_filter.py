import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import lapden.core as core
import lapden.nl_filter as nl_filter
from lapden import (
    DivergenceError,
    Field2D,
    FilterParams,
    NoiseSpec,
    Signal1D,
    adaptive_lambda,
    add_noise,
    denoise_1d,
    denoise_2d,
    flux,
    gaussian_noise,
    rhs_1d,
    rhs_2d,
    sample_f2d,
    sample_f_sine,
    sample_g_jumps,
    stable_step_bound,
)
from lapden.experiments import NLAP_1D, NLAP_2D
from lapden.grid_ops import apply_banded, build_d0, build_lagged_1d, solve_banded

from test_grid_ops import dense_d0, dense_d1


def count_calls(monkeypatch, name: str) -> list:
    """Replace nl_filter's binding of name by a wrapper that logs each call
    in the returned list."""
    calls = []
    original = getattr(nl_filter, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(nl_filter, name, counting)
    return calls


def lagged_iteration(u0: Signal1D, params: FilterParams, steps: int) -> np.ndarray:
    """steps lagged-diffusivity corrections at the fixed lam of params, as
    the filter took them before its Newton step: u <- u + A^-1 r with
    A = D1 diag((w^2 + eps)^-p) D0 + lam I, w = D0 u."""
    d0 = build_d0(len(u0), u0.h)
    u = u0.values
    for _ in range(steps):
        w = apply_banded(d0, u)
        r = rhs_1d(u0.with_values(u), u0, params)
        g = (w * w + params.epsilon) ** -params.p
        u = u + solve_banded(build_lagged_1d(g, u0.h, params.lam), r)
    return u


def reference_gmres(matvec, precond, b: np.ndarray, eta: float) -> np.ndarray:
    """nl_filter._gmres with its Hessenberg matrix, Givens pairs and
    right-hand side in numpy arrays: the bit-for-bit reference of its
    Python-float bookkeeping."""
    beta = float(np.linalg.norm(b))
    m = nl_filter._GMRES_VECTORS
    basis = np.empty((m + 1, b.size))
    basis[0] = b / beta
    hess = np.zeros((m + 1, m))
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
        if radius == 0.0:
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


def noise_signal(n: int, seed: int) -> Signal1D:
    return Signal1D(gaussian_noise(n, NoiseSpec(seed=seed, delta_rel=0)))


def dense_lap2d(values: np.ndarray, h: float, kind: str) -> np.ndarray:
    """Scalar-loop ghost-padded stencil oracle."""
    rows, cols = values.shape
    if kind == "dirichlet":
        work = values.copy()
        work[0, :] = work[-1, :] = work[:, 0] = work[:, -1] = 0.0
    else:
        work = values
    out = np.zeros_like(values)
    for i in range(rows):
        for j in range(cols):
            total = -4.0 * work[i, j]
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                r, c = i + di, j + dj
                if 0 <= r < rows and 0 <= c < cols:
                    total += work[r, c]
                elif kind == "neumann":
                    total += work[i - di, j - dj]  # mirror ghost
                # dirichlet ghosts contribute zero
            out[i, j] = total
    return out / h**2


class TestFlux:
    def test_zero(self):
        assert flux(0.0, 0.3, 0.7) == 0.0

    def test_direct_value(self):
        assert flux(1.0, 1.0, 0.5) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_odd(self):
        rng = np.random.default_rng(0)
        w = rng.normal(scale=3.0, size=100)
        assert np.array_equal(flux(-w, 1e-2, 0.5), -flux(w, 1e-2, 0.5))

    @pytest.mark.parametrize("p", [0.6, 0.75, 1.0, 1.5])
    def test_bounded_with_closed_form_max(self, p):
        eps = 1e-2
        w = np.linspace(-10, 10, 2_000_001)
        sampled_max = np.abs(flux(w, eps, p)).max()
        w_star = np.sqrt(eps / (2 * p - 1))
        closed = w_star / (w_star**2 + eps) ** p
        assert sampled_max <= closed + 1e-12
        assert abs(sampled_max - closed) < 1e-6


class TestRhs1D:
    def test_constant_equilibrium(self):
        u = Signal1D(np.full(9, 4.2))
        assert np.array_equal(rhs_1d(u, u, FilterParams()), np.zeros(9))

    def test_dense_composition_oracle(self):
        rng = np.random.default_rng(1)
        n = 8
        u = Signal1D(rng.normal(size=n))
        u0 = Signal1D(rng.normal(size=n))
        params = FilterParams(lam=0.0, epsilon=5e-2, p=0.75)
        d0, d1 = dense_d0(n, 1.0), dense_d1(n, 1.0)
        expected = -(d1 @ flux(d0 @ u.values, params.epsilon, params.p))
        assert np.allclose(rhs_1d(u, u0, params), expected, rtol=1e-13, atol=1e-13)

    def test_negation_equivariance(self):
        rng = np.random.default_rng(2)
        u = Signal1D(rng.normal(size=12))
        u0 = Signal1D(rng.normal(size=12))
        params = FilterParams(lam=0.8)
        neg = rhs_1d(u.with_values(-u.values), u0.with_values(-u0.values), params)
        assert np.array_equal(neg, -rhs_1d(u, u0, params))

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            rhs_1d(Signal1D(np.ones(5)), Signal1D(np.ones(6)), FilterParams())


class TestRhs2D:
    def test_constant_equilibrium(self):
        f = Field2D(np.full((4, 6), -1.5))
        assert np.array_equal(rhs_2d(f, f, FilterParams()).values, np.zeros((4, 6)))

    def test_dense_stencil_oracle(self):
        rng = np.random.default_rng(3)
        u = Field2D(rng.normal(size=(5, 5)))
        u0 = Field2D(rng.normal(size=(5, 5)))
        params = FilterParams(lam=0.0, epsilon=2e-2, p=0.5)
        inner = dense_lap2d(u.values, 1.0, "neumann")
        expected = -dense_lap2d(flux(inner, params.epsilon, params.p), 1.0, "dirichlet")
        assert np.allclose(rhs_2d(u, u0, params).values, expected,
                           rtol=1e-13, atol=1e-13)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        u = Field2D(rng.normal(size=(7, 7)))
        u0 = Field2D(rng.normal(size=(7, 7)))
        params = FilterParams(lam=0.6)
        rot = rhs_2d(u.with_values(np.rot90(u.values)),
                     u0.with_values(np.rot90(u0.values)), params).values
        assert np.allclose(rot, np.rot90(rhs_2d(u, u0, params).values),
                           rtol=0, atol=1e-12)


class TestStableStepBound:
    def test_reference_value(self):
        assert stable_step_bound(1.0, 1.0, 0.5, 0.0) == pytest.approx(0.125)

    def test_monotone_in_lambda(self):
        lams = [0.0, 1.0, 10.0, 1e3, 1e6]
        bounds = [stable_step_bound(1.0, 1e-2, 0.5, lam) for lam in lams]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_no_blow_up_over_1e4_steps(self):
        clean = sample_f_sine(100)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.09))
        dt = 0.9 * stable_step_bound(noisy.h, 1e-2, 0.5, 1.0)
        params = FilterParams(lam=1.0, dt=dt, max_iters=10_000, tol=1e-300)
        _, trace = denoise_1d(noisy, params)
        r = trace.residual_history
        ratios = r[1:] / np.maximum(r[:-1], 1e-300)
        assert ratios.max() <= 10.0


class TestAdaptiveLambda:
    def test_zero_at_start(self):
        u = Signal1D(np.sin(np.arange(10)))
        params = FilterParams(target_delta=0.5)
        assert adaptive_lambda(u, u, params) == 0.0

    def test_quarter_under_doubled_delta(self):
        rng = np.random.default_rng(6)
        u = Signal1D(rng.normal(size=30))
        u0 = Signal1D(rng.normal(size=30))
        lam1 = adaptive_lambda(u, u0, FilterParams(target_delta=0.3))
        lam2 = adaptive_lambda(u, u0, FilterParams(target_delta=0.6))
        if lam1 == 0.0:
            assert lam2 == 0.0
        else:
            assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-12)

    def test_requires_target(self):
        u = Signal1D(np.ones(5))
        with pytest.raises(ValueError):
            adaptive_lambda(u, u, FilterParams())

    @pytest.mark.parametrize("u0", [Field2D(np.zeros((8, 8)), 0.5),
                                    Field2D(np.zeros((8, 7)))],
                             ids=["spacing", "shape"])
    def test_2d_grid_mismatch_rejected(self, u0):
        u = Field2D(np.arange(64.0).reshape(8, 8))
        with pytest.raises(ValueError, match="fields disagree"):
            adaptive_lambda(u, u0, FilterParams(target_delta=1.0))

    def test_closed_loop_lands_on_delta(self):
        clean = sample_f_sine(100)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.09))
        delta = float(np.linalg.norm(noisy.values - clean.values))
        params = FilterParams(target_delta=delta)
        restored, trace = denoise_1d(noisy, params)
        assert trace.converged
        fid = np.linalg.norm(restored.values - noisy.values)
        assert 0.95 * delta <= fid <= 1.05 * delta


class TestDenoise1D:
    def test_constant_fixed_point(self):
        u0 = Signal1D(np.full(25, 3.25))
        restored, trace = denoise_1d(u0, FilterParams(lam=1.0))
        assert np.array_equal(restored.values, u0.values)
        assert trace.converged
        assert trace.iters_run == 1

    def test_noisy_sine_improves(self):
        clean = sample_f_sine(100)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.09))
        delta = float(np.linalg.norm(noisy.values - clean.values))
        restored, trace = denoise_1d(
            noisy, FilterParams(target_delta=delta))
        rel = np.linalg.norm(restored.values - clean.values) \
            / np.linalg.norm(clean.values)
        assert trace.converged
        assert rel < 0.09
        # regression baseline recorded at freeze time
        assert rel <= 0.05431685473450227 * 1.001

    def test_shift_equivariance(self):
        base = noise_signal(40, seed=8)
        params = FilterParams(lam=1.0, max_iters=300, tol=1e-300)
        plain, _ = denoise_1d(base, params)
        shifted, _ = denoise_1d(base.with_values(base.values + 11.5), params)
        assert np.allclose(shifted.values, plain.values + 11.5,
                           rtol=0, atol=1e-11)

    def test_solvers_agree_at_equilibrium(self):
        raw = gaussian_noise(51, NoiseSpec(seed=3, delta_rel=0))
        u0 = Signal1D(np.convolve(raw, np.ones(7) / 7, mode="same"))
        params = FilterParams(lam=0.5, tol=1e-8, max_iters=500_000)
        dt = 0.9 * stable_step_bound(u0.h, params.epsilon, params.p, params.lam)
        ue, te = denoise_1d(u0, replace(params, dt=dt))
        ul, tl = denoise_1d(u0, params)
        assert te.converged and tl.converged
        assert te.dt_used == dt and tl.dt_used is None
        rel = np.linalg.norm(ue.values - ul.values) / np.linalg.norm(ue.values)
        assert rel <= 1e-3

    def test_divergence_names_iteration(self):
        # the saturating flux alone cannot overflow; an oversized step makes
        # the fidelity term amplify by lam*dt each iteration
        noisy = noise_signal(30, seed=9)
        params = FilterParams(lam=1.0, dt=1e9, max_iters=1000, tol=1e-300)
        with pytest.raises(DivergenceError, match=r"iteration \d+"):
            denoise_1d(noisy, params)

    @pytest.mark.parametrize("dt", [None, 1e-3], ids=["lagged", "explicit"])
    def test_iteration_cap_reports_not_converged(self, dt):
        # max_iters caps the corrections: 3 of them, and 4 checked iterates
        noisy = noise_signal(30, seed=10)
        _, trace = denoise_1d(noisy, FilterParams(lam=1.0, dt=dt, max_iters=3,
                                                  tol=1e-14))
        assert not trace.converged
        assert trace.iters_run == 4

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            denoise_1d(Signal1D(np.ones(2)), FilterParams())

    def test_trace_invariant_on_convergence(self):
        clean = sample_f_sine(60)
        noisy = add_noise(clean, NoiseSpec(seed=12, delta_rel=0.05))
        params = FilterParams(lam=1.0, tol=1e-7)
        _, trace = denoise_1d(noisy, params)
        assert trace.converged
        assert trace.residual_history[-1] <= \
            params.tol * np.linalg.norm(noisy.values)
        assert trace.iters_run == len(trace.residual_history) \
            == len(trace.fidelity_history) == len(trace.lambda_history)

    @pytest.mark.parametrize("path", ["explicit", "lagged", "lagged-2d"])
    def test_one_flux_evaluation_per_step(self, monkeypatch, path):
        # explicit Euler evaluates the flux once per checked iterate: the
        # residual there serves the stationarity check and the next
        # correction.  The Newton path evaluates it once per solve, at the
        # trial point, and the check at an accepted trial reuses it; so
        # flux calls = solves + 1 (the data), a rejected trial included.
        # 2D tries no Newton step, so it evaluates once per checked iterate
        clean = sample_f_sine(100)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.09))
        delta = float(np.linalg.norm(noisy.values - clean.values))
        calls = count_calls(monkeypatch, "flux")
        solves = count_calls(monkeypatch, "solve_banded")
        params = replace(NLAP_1D, target_delta=delta)
        if path == "lagged-2d":
            _, noisy, delta = noisy_f2d(16, seed=42)
            _, trace = denoise_2d(noisy, replace(NLAP_2D, target_delta=delta))
            assert len(calls) == trace.iters_run > 2
        elif path == "explicit":
            dt = 0.9 * stable_step_bound(1.0, 1e-2, 0.5, 10.0)
            _, trace = denoise_1d(noisy, replace(params, dt=dt))
            assert len(calls) == trace.iters_run
        else:
            _, trace = denoise_1d(noisy, params)
            assert len(calls) == len(solves) + 1
            assert len(solves) > trace.iters_run - 1  # a trial was rejected
        assert trace.converged


class TestDenoise2D:
    def test_constant_fixed_point(self):
        f = Field2D(np.full((6, 6), 0.75))
        restored, trace = denoise_2d(f, FilterParams(lam=1.0))
        assert np.array_equal(restored.values, f.values)
        assert trace.converged
        assert trace.iters_run == 1

    def test_one_step_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        u0 = Field2D(rng.normal(size=(5, 5)))
        warm = Field2D(rng.normal(size=(5, 5)))
        params = FilterParams(lam=0.7, dt=1e-3, max_iters=1, tol=1e-300)
        stepped, _ = denoise_2d(u0, params, warm_start=warm)
        inner = dense_lap2d(warm.values, 1.0, "neumann")
        rhs = -dense_lap2d(flux(inner, params.epsilon, params.p), 1.0, "dirichlet") \
            - params.lam * (warm.values - u0.values)
        expected = warm.values + params.dt * rhs
        assert np.allclose(stepped.values, expected, rtol=1e-12, atol=1e-13)

    def test_negation_equivariance(self):
        f = Field2D(gaussian_noise(64, NoiseSpec(seed=15, delta_rel=0)).reshape(8, 8))
        params = FilterParams(lam=1.0, max_iters=40, tol=1e-300)
        pos, _ = denoise_2d(f, params)
        neg, _ = denoise_2d(f.with_values(-f.values), params)
        assert np.array_equal(neg.values, -pos.values)

    def test_non_square_equivariance(self):
        # rows and columns take different sine bases on a non-square field,
        # so a swap of the two would break these where a square one cannot
        f = Field2D(np.random.default_rng(99).normal(size=(9, 13)))
        params = FilterParams(lam=1.0, max_iters=60, tol=1e-300)
        base, _ = denoise_2d(f, params)
        for move, undo in ((np.rot90, lambda v: np.rot90(v, -1)),
                           (lambda v: v[:, ::-1], lambda v: v[:, ::-1]),
                           (np.transpose, np.transpose)):
            moved, _ = denoise_2d(f.with_values(move(f.values)), params)
            assert np.abs(undo(moved.values) - base.values).max() <= 1e-11

    def test_small_field_rejected(self):
        with pytest.raises(ValueError):
            denoise_2d(Field2D(np.ones((2, 2))), FilterParams())

    def test_warm_start_shape_checked(self):
        f = Field2D(np.ones((5, 5)))
        with pytest.raises(ValueError):
            denoise_2d(f, FilterParams(), warm_start=Field2D(np.ones((4, 5))))


def noisy_f2d(n: int, seed: int) -> tuple[Field2D, Field2D, float]:
    clean = sample_f2d(n)
    noisy = add_noise(clean, NoiseSpec(seed=seed, delta_rel=0.05))
    return clean, noisy, float(np.linalg.norm(noisy.values - clean.values))


# inner-solve shapes: the smallest field, a thin one, and a non-square and
# a square one with more than one interior row
SHAPES = [(3, 3), (3, 7), (6, 5), (6, 6)]


def shape_id(shape) -> str:
    return f"{shape[0]}x{shape[1]}"


class TestLagged2D:
    H, LAM = 0.5, 0.3

    @classmethod
    def dense_lagged(cls, g):
        # A = L_D diag(g) L_N + lam I from the dense oracles
        units = np.eye(g.size).reshape(g.size, *g.shape)
        lap_n, lap_d = (np.array([dense_lap2d(e, cls.H, kind).ravel() for e in units]).T
                        for kind in ("neumann", "dirichlet"))
        return lap_d @ np.diag(g.ravel()) @ lap_n + cls.LAM * np.eye(g.size)

    @classmethod
    def inner_solve_relative_residual(cls, shape, eta):
        # ||A x - r|| / ||r|| after one GMRES cycle to eta; a square grid
        # shares one D1 eigenbasis between rows and columns
        rng = np.random.default_rng(21)
        g = rng.uniform(0.05, 3.0, size=shape)
        r = rng.normal(size=shape)
        a = cls.dense_lagged(g)
        x = nl_filter._lagged_2d(shape, cls.H)(g, cls.LAM, r, eta)
        assert x.shape == shape
        return np.linalg.norm(a @ x.ravel() - r.ravel()) / np.linalg.norm(r)

    @pytest.mark.parametrize("shape", [(6, 5), (6, 6)], ids=["6x5", "6x6"])
    def test_lagged_matrix_is_symmetric_in_the_d1_laplacian(self, shape):
        # the preconditioner's premise: with T = D1_row + D1_col (a Kronecker
        # sum), L_D = T R and R L_N = R T for R the zero-ring projection, so
        # A = T diag(g ring_mask) T + lam I, symmetric bit for bit
        g = np.random.default_rng(21).uniform(0.05, 3.0, size=shape)
        a = self.dense_lagged(g)
        rows, cols = shape
        t = (np.kron(dense_d1(rows, self.H), np.eye(cols))
             + np.kron(np.eye(rows), dense_d1(cols, self.H)))
        ring_mask = np.zeros(shape)
        ring_mask[1:-1, 1:-1] = 1.0
        assert np.array_equal(a, a.T)
        assert np.array_equal(
            a, t @ np.diag((g * ring_mask).ravel()) @ t + self.LAM * np.eye(g.size))

    @pytest.mark.parametrize("n", [3, 8, 33])
    def test_d1_eigh_returns_eigenpairs_of_d1(self, n):
        h = 1.0 / (n + 1)
        d1 = dense_d1(n, h)
        mu, q = nl_filter._d1_eigh(n, h)
        assert mu.shape == (n,) and q.shape == (n, n)
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14 * n
        residual = np.linalg.norm(d1 @ q - q * mu, axis=0)
        assert residual.max() <= 1e-14 * n * np.linalg.norm(d1, 2)

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_gmres_runs_on_sine_coefficients(self, monkeypatch, shape):
        # the operator _lagged_2d hands _gmres is Q^T A Q D^-1: A P^-1 in
        # the product sine basis Q = q_r (x) q_c, with the pivots
        # D = max(g) Lambda^2 + lam for Lambda the spectrum of T
        rng = np.random.default_rng(21)
        g = rng.uniform(0.05, 3.0, size=shape)
        handed = []
        monkeypatch.setattr(nl_filter, "_gmres", lambda matvec, b, eta:
                            handed.append(matvec) or np.zeros_like(b))
        nl_filter._lagged_2d(shape, self.H)(g, self.LAM, rng.normal(size=shape), 1e-2)
        (mu, q_r), (nu, q_c) = (nl_filter._d1_eigh(n, self.H) for n in shape)
        q = np.kron(q_r, q_c)
        pivots = g.max() * (mu[:, None] + nu[None, :]).ravel() ** 2 + self.LAM
        expect = q.T @ self.dense_lagged(g) @ q / pivots
        got = np.array([handed[0](e) for e in np.eye(g.size)]).T
        assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_tight_inner_solve_is_the_dense_step(self, shape):
        # every shape has fewer unknowns than _GMRES_VECTORS, so one cycle
        # at a tight eta reaches A^-1 r
        rng = np.random.default_rng(22)
        g = rng.uniform(0.05, 3.0, size=shape)
        r = rng.normal(size=shape)
        x = nl_filter._lagged_2d(shape, self.H)(g, self.LAM, r, 1e-13)
        expect = np.linalg.solve(self.dense_lagged(g), r.ravel()).reshape(shape)
        assert np.abs(x - expect).max() <= 1e-10 * np.abs(expect).max()

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_inner_solve_reaches_its_tolerance(self, shape):
        assert self.inner_solve_relative_residual(shape, 1e-2) <= 1e-2

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_inner_solve_reaches_a_loose_tolerance(self, shape):
        # core._ETA_MAX, the cap of the forcing rule
        assert self.inner_solve_relative_residual(shape, 0.3) <= 0.3

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_agrees_with_explicit_equilibrium(self, lam):
        _, noisy, _ = noisy_f2d(32, seed=3)
        params = FilterParams(lam=lam)
        # a quarter of the 1D safe step: the five-point operators have twice
        # the 1D norm
        dt = 0.9 / 4 * stable_step_bound(noisy.h, params.epsilon, params.p, lam)
        ue, te = denoise_2d(noisy, replace(params, dt=dt))
        ul, tl = denoise_2d(noisy, params)
        assert te.converged and tl.converged
        assert te.dt_used == dt and tl.dt_used is None
        assert np.abs(ul.values - ue.values).max() <= 1e-5

    def test_fig5_converges_in_few_outer_steps(self):
        clean, noisy, delta = noisy_f2d(64, seed=42)
        params = replace(NLAP_2D, target_delta=delta)
        restored, trace = denoise_2d(noisy, params)
        assert trace.converged
        assert trace.iters_run <= 20
        fid = np.linalg.norm(restored.values - noisy.values)
        assert abs(fid - delta) <= 1e-4 * delta

    def test_fig5_runs_no_stencil_inside_the_inner_solve(self, monkeypatch):
        # GMRES iterates on sine-basis coefficients, where T is diagonal, so
        # only each check's D(u) applies the two stencils: 26 calls for 13
        # checks (192 when every matvec applied both stencils)
        calls = count_calls(monkeypatch, "laplacian_2d_values")
        _, noisy, delta = noisy_f2d(64, seed=42)
        _, trace = denoise_2d(noisy, replace(NLAP_2D, target_delta=delta))
        assert trace.converged
        assert len(calls) == 2 * trace.iters_run

    def test_constant_fixed_point(self):
        f = Field2D(np.full((7, 5), 0.3))
        for params in (FilterParams(lam=1.0), FilterParams(target_delta=0.1)):
            restored, trace = denoise_2d(f, params)
            assert np.array_equal(restored.values, f.values)
            assert trace.converged
            assert trace.iters_run == 1
            assert trace.dt_used is None

    def test_negation_equivariance(self):
        _, noisy, _ = noisy_f2d(16, seed=15)
        params = FilterParams(lam=1.0, max_iters=5, tol=1e-300)
        pos, _ = denoise_2d(noisy, params)
        neg, _ = denoise_2d(noisy.with_values(-noisy.values), params)
        assert np.array_equal(neg.values, -pos.values)

    def test_zero_lambda_estimate_keeps_steps_bounded(self, monkeypatch):
        # lam = 0 leaves A and the preconditioner singular, since L_N
        # annihilates constants; the solve must not shift the constant mode
        # by a round-off pivot (~1e12), nor certify a step it could not take
        monkeypatch.setattr(core, "_lambda_estimate", lambda *args: 0.0)
        _, noisy, delta = noisy_f2d(16, seed=4)
        params = FilterParams(target_delta=delta, max_iters=5)
        restored, trace = denoise_2d(noisy, params)
        assert trace.iters_run == 6
        assert not trace.converged
        assert np.all(trace.lambda_history[1:] == 0.0)
        assert np.abs(restored.values - noisy.values).max() \
            <= np.abs(noisy.values).max()
        assert np.all(np.diff(trace.residual_history) < 0.0)

    def test_fixed_step_takes_explicit_steps(self):
        # a dt asks for time steps u <- u + dt r, bit for bit
        f = Field2D(np.eye(5))
        params = FilterParams(dt=1e-3, max_iters=3, tol=1e-300)
        restored, trace = denoise_2d(f, params)
        expect = f
        for _ in range(3):
            expect = expect.with_values(
                expect.values + params.dt * rhs_2d(expect, f, params).values)
        assert np.array_equal(restored.values, expect.values)
        assert trace.dt_used == params.dt

    @pytest.mark.parametrize("dt", [None, 1e-3], ids=["dt-unset", "dt-set"])
    def test_zero_lambda_rejected(self, dt):
        # at lam = 0 nothing pulls u toward the data
        params = FilterParams(lam=0.0, dt=dt)
        with pytest.raises(ValueError, match="lam.*fidelity weight must be positive"):
            denoise_2d(Field2D(np.eye(5)), params)


class TestGmres:
    """nl_filter._gmres, handed A P^-1 and mapped back by P^-1 as
    _lagged_2d does, against reference_gmres, bit for bit.  Every matvec
    and precond returns a fresh array: _gmres subtracts from what matvec
    returns in place."""

    @staticmethod
    def random_system(seed: int, n: int = 80):
        # a non-symmetric A and a diagonal P with a spread spectrum, so that
        # a tight eta needs the whole cycle
        rng = np.random.default_rng(seed)
        a = np.eye(n) + rng.normal(scale=1.0 / math.sqrt(n), size=(n, n))
        d = rng.uniform(0.1, 2.0, size=n)
        return (lambda x: a @ x), (lambda x: x / d), rng.normal(size=n), a

    @staticmethod
    def both(matvec, precond, b, eta):
        calls = []

        def counted(x):
            calls.append(1)
            return matvec(x)

        got = precond(nl_filter._gmres(lambda x: counted(precond(x)), b, eta))
        count = len(calls)
        expect = reference_gmres(matvec, precond, b, eta)
        assert np.array_equal(got, expect)
        return got, count

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_loose_eta_stops_early(self, seed):
        matvec, precond, b, a = self.random_system(seed)
        x, count = self.both(matvec, precond, b, 0.3)
        assert count < nl_filter._GMRES_VECTORS
        assert np.linalg.norm(a @ x - b) <= 0.3 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_tight_eta_runs_the_whole_cycle(self, seed):
        matvec, precond, b, _ = self.random_system(seed)
        _, count = self.both(matvec, precond, b, 1e-14)
        assert count == nl_filter._GMRES_VECTORS

    def test_lucky_breakdown(self):
        # A P^-1 = I on a right-hand side whose normalization is exact, so the
        # first Gram-Schmidt step leaves exactly zero (h_next == 0)
        b = np.full(16, 3.0)
        x, count = self.both(lambda x: 2.0 * x, lambda x: 0.5 * x, b, 1e-12)
        assert count == 1
        assert np.array_equal(x, np.full(16, 1.5))

    def test_zero_operator_returns_zero(self):
        # A P^-1 = 0: the first rotation has radius 0, and no vector is kept
        _, precond, b, _ = self.random_system(9)
        x, count = self.both(lambda x: np.zeros_like(x), precond, b, 1e-12)
        assert count == 1
        assert np.array_equal(x, np.zeros_like(b))


class TestLagged1D:
    @pytest.mark.parametrize("sampler, lam", [
        (sample_f_sine, None), (sample_g_jumps, None), (sample_g_jumps, 2.0)],
        ids=["fig2", "fig3", "fig3-lam2"])
    def test_fig_converges_in_few_iterations(self, sampler, lam):
        clean = sampler(100)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.09))
        delta = float(np.linalg.norm(noisy.values - clean.values))
        if lam is None:
            params = replace(NLAP_1D, target_delta=delta)
        else:
            params = replace(NLAP_1D, lam=lam)
        restored, trace = denoise_1d(noisy, params)
        assert trace.converged
        assert trace.dt_used is None
        assert trace.iters_run < 15
        if lam is None:
            fid = np.linalg.norm(restored.values - noisy.values)
            assert abs(fid - delta) <= 1e-4 * delta

    def test_one_step_matches_dense_oracle(self):
        # u1 = u0 + A^-1 r(u0) with A = D1 diag(g) D0 + lam I, g = (w^2+eps)^-p
        rng = np.random.default_rng(16)
        n = 9
        u0 = Signal1D(rng.normal(size=n))
        params = FilterParams(lam=0.7, epsilon=3e-2, p=0.75, max_iters=1,
                              tol=1e-300)
        stepped, trace = denoise_1d(u0, params)
        d0, d1 = dense_d0(n, 1.0), dense_d1(n, 1.0)
        w = d0 @ u0.values
        g = (w * w + params.epsilon) ** -params.p
        a = d1 @ np.diag(g) @ d0 + params.lam * np.eye(n)
        expected = u0.values + np.linalg.solve(a, -(d1 @ (g * w)))
        assert trace.iters_run == 2
        assert np.allclose(stepped.values, expected, rtol=1e-12, atol=1e-12)

    def test_newton_step_matches_dense_oracle(self, monkeypatch):
        # at p = 0.5 an accepted trial is u1 = u0 + J^-1 r(u0), with
        # J = D1 diag(F'(w)) D0 + lam I and F'(w) = eps (w^2 + eps)^-3/2
        rng = np.random.default_rng(16)
        n = 9
        u0 = Signal1D(rng.normal(size=n))
        params = FilterParams(lam=10.0, epsilon=0.1, max_iters=1, tol=1e-300)
        solves = count_calls(monkeypatch, "solve_banded")
        stepped, trace = denoise_1d(u0, params)
        d0, d1 = dense_d0(n, 1.0), dense_d1(n, 1.0)
        w = d0 @ u0.values
        fprime = params.epsilon * (w * w + params.epsilon) ** -1.5
        jac = d1 @ np.diag(fprime) @ d0 + params.lam * np.eye(n)
        r = -(d1 @ flux(w, params.epsilon, params.p))
        expected = u0.values + np.linalg.solve(jac, r)
        assert len(solves) == 1  # the trial was kept
        assert trace.iters_run == 2
        assert np.allclose(stepped.values, expected, rtol=1e-12, atol=1e-12)
        # the lagged step lands elsewhere
        assert np.abs(lagged_iteration(u0, params, 1) - expected).max() > 1e-3

    def test_rejected_trial_takes_the_lagged_step(self, monkeypatch):
        # from far off the equilibrium the Newton trial does not halve the
        # residual, and the correction is the lagged step bit for bit
        rng = np.random.default_rng(16)
        u0 = Signal1D(rng.normal(size=9))
        params = FilterParams(lam=0.7, epsilon=3e-2, max_iters=1, tol=1e-300)
        solves = count_calls(monkeypatch, "solve_banded")
        stepped, _ = denoise_1d(u0, params)
        assert len(solves) == 2  # the Newton trial, then the lagged step
        assert np.array_equal(stepped.values, lagged_iteration(u0, params, 1))

    def test_other_p_takes_only_lagged_steps(self):
        # F' changes sign for p > 0.5, so there every step is the lagged one
        noisy = add_noise(sample_g_jumps(60), NoiseSpec(seed=5, delta_rel=0.09))
        params = FilterParams(lam=2.0, p=0.75, max_iters=12, tol=1e-300)
        restored, trace = denoise_1d(noisy, params)
        assert trace.iters_run == 13
        assert np.array_equal(restored.values, lagged_iteration(noisy, params, 12))

    def test_zero_lambda_estimate_keeps_steps_bounded(self, monkeypatch):
        # lam = 0 leaves A singular, since D0 annihilates constants; the
        # solve must not fail or shift the constant mode by a round-off pivot
        monkeypatch.setattr(core, "_lambda_estimate", lambda *args: 0.0)
        noisy = add_noise(sample_f_sine(40), NoiseSpec(seed=4, delta_rel=0.09))
        params = FilterParams(target_delta=1.0, max_iters=5)
        restored, trace = denoise_1d(noisy, params)
        assert trace.iters_run == 6
        assert np.all(trace.lambda_history[1:] == 0.0)
        assert np.abs(restored.values - noisy.values).max() \
            <= np.abs(noisy.values).max()
        assert np.all(np.diff(trace.residual_history) < 0.0)

    def test_fixed_step_takes_explicit_steps(self):
        # a dt asks for time steps u <- u + dt r, bit for bit
        u0 = noise_signal(12, seed=17)
        params = FilterParams(dt=1e-3, max_iters=3, tol=1e-300)
        restored, trace = denoise_1d(u0, params)
        expect = u0
        for _ in range(3):
            expect = expect.with_values(
                expect.values + params.dt * rhs_1d(expect, u0, params))
        assert np.array_equal(restored.values, expect.values)
        assert trace.dt_used == params.dt

    @pytest.mark.parametrize("dt", [None, 1e-3], ids=["dt-unset", "dt-set"])
    def test_zero_lambda_rejected(self, dt):
        # at lam = 0 nothing pulls u toward the data, and the equilibrium
        # of the filter equation is a constant
        params = FilterParams(lam=0.0, dt=dt)
        with pytest.raises(ValueError, match="lam.*fidelity weight must be positive"):
            denoise_1d(noise_signal(12, seed=17), params)


class TestLaggedHistory:
    @pytest.mark.parametrize("ndim, dt", [(1, None), (2, None), (1, 5e-3), (2, 2e-3)],
                             ids=["1d", "2d", "1d-explicit", "2d-explicit"])
    def test_history_semantics(self, ndim, dt):
        # lagged diffusivity and fixed-step explicit Euler share one loop and
        # so one trace convention
        if ndim == 1:
            clean = sample_f_sine(60)
            noisy = add_noise(clean, NoiseSpec(seed=8, delta_rel=0.09))
            delta = float(np.linalg.norm(noisy.values - clean.values))
            denoise, rhs = denoise_1d, rhs_1d
        else:
            _, noisy, delta = noisy_f2d(24, seed=8)
            denoise, rhs = denoise_2d, (lambda *a: rhs_2d(*a).values)
        params = FilterParams(target_delta=delta, dt=dt)
        restored, trace = denoise(noisy, params)
        assert trace.converged
        assert trace.dt_used == dt
        # entry 0 checks the data itself, the last entry the returned iterate
        assert trace.fidelity_history[0] == 0.0
        fid = np.linalg.norm(restored.values - noisy.values)
        assert trace.fidelity_history[-1] == fid
        lam = trace.lambda_history[-1]
        stat = np.linalg.norm(rhs(restored, noisy,
                                  FilterParams(lam=lam, p=params.p,
                                               epsilon=params.epsilon)))
        assert trace.residual_history[-1] == stat
        assert trace.residual_history[-1] <= 10.0 * params.tol * lam * fid
        assert np.all(trace.residual_history[:-1] > 10.0 * params.tol
                      * trace.lambda_history[:-1] * trace.fidelity_history[:-1])
        # the first check runs at the initial weight, the last at the
        # estimate that adaptive_lambda makes from the returned iterate
        assert trace.lambda_history[0] == 1.0
        assert lam == adaptive_lambda(restored, noisy, params)


class TestStepLambda:
    # _step_lambda works on x = log lam of the last step and
    # f = log lam_est - x; its state is (x, (x, f) of the step before)

    def test_first_step_is_the_fixed_point(self):
        lam, state = core._step_lambda(2.5, None)
        assert lam == 2.5
        assert state == (math.log(2.5), None)

    def test_fixed_point_without_a_secant_pair(self):
        lam, state = core._step_lambda(math.e, (0.0, None))
        assert lam == math.e
        assert state == (1.0, (0.0, 1.0))

    def test_secant_step(self):
        # the secant through (-1, 1.5) and (0, 1) meets f = 0 at x = 2
        lam, state = core._step_lambda(math.e, (0.0, (-1.0, 1.5)))
        assert lam == pytest.approx(math.exp(2.0), rel=1e-15)
        assert state == (pytest.approx(2.0, rel=1e-15), (0.0, 1.0))

    @pytest.mark.parametrize("prev", [(-1.0, 0.5), (1.0, 1.5), (-1.0, 1.0)],
                             ids=["backward", "backward-other-side", "flat"])
    def test_falls_back_to_the_fixed_point(self, prev):
        # the secant points against f = 1 (or, with f_prev = f, nowhere)
        lam, state = core._step_lambda(math.e, (0.0, prev))
        assert lam == math.e
        assert state == (1.0, (0.0, 1.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_secant_capped_at_ten_fixed_point_steps(self, sign):
        # uncapped, the secant through (-s, 1.05 s) and (0, s) moves 20 s
        lam, state = core._step_lambda(math.exp(sign),
                                       (0.0, (-sign, 1.05 * sign)))
        assert core._SECANT_CAP == 10.0
        assert state[0] == pytest.approx(10.0 * sign, rel=1e-14)
        assert lam == pytest.approx(math.exp(10.0 * sign), rel=1e-13)

    def test_zero_estimate_resets_the_history(self):
        lam, state = core._step_lambda(0.0, (0.3, (0.1, 0.2)))
        assert lam == 0.0 and state is None
        lam, state = core._step_lambda(4.0, state)
        assert lam == 4.0
        assert state == (math.log(4.0), None)


class TestAdaptiveSecant:
    """The adaptive filter on the experiment instances: it lands on delta
    and on the fixed-lam equilibrium at its final lam, in few outer steps."""

    @staticmethod
    def run_1d(sampler, n, seed):
        clean = sampler(n)
        noisy = add_noise(clean, NoiseSpec(seed=seed, delta_rel=0.09))
        delta = float(np.linalg.norm(noisy.values - clean.values))
        restored, trace = denoise_1d(noisy, replace(NLAP_1D, target_delta=delta))
        return noisy, delta, restored, trace

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("sampler", [sample_f_sine, sample_g_jumps],
                             ids=["fig2", "fig3"])
    def test_seed_sweep_reaches_delta(self, sampler, seed):
        noisy, delta, restored, trace = self.run_1d(sampler, 100, seed)
        assert trace.converged
        fid = np.linalg.norm(restored.values - noisy.values)
        assert abs(fid / delta - 1.0) <= 1e-4
        assert trace.iters_run <= (25 if sampler is sample_f_sine else 12)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_sine_256_outer_steps(self, seed):
        _, _, _, trace = self.run_1d(sample_f_sine, 256, seed)
        assert trace.converged
        assert trace.iters_run <= 25

    @pytest.mark.parametrize("seed", [1, 2, 3])  # 42: TestLagged2D
    def test_fig5_outer_steps(self, seed):
        _, noisy, delta = noisy_f2d(64, seed)
        restored, trace = denoise_2d(noisy, replace(NLAP_2D, target_delta=delta))
        assert trace.converged
        assert trace.iters_run <= 20
        fid = np.linalg.norm(restored.values - noisy.values)
        assert abs(fid / delta - 1.0) <= 1e-4

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_matches_fixed_lambda_solve_at_final_lambda(self, ndim):
        # the adaptive equilibrium is the fixed-lam equilibrium at the lam
        # it certified; the fixed-lam run never sees _step_lambda
        if ndim == 1:
            noisy, _, restored, trace = self.run_1d(sample_g_jumps, 100, 42)
            denoise, params = denoise_1d, NLAP_1D
        else:
            _, noisy, delta = noisy_f2d(64, 42)
            denoise, params = denoise_2d, NLAP_2D
            restored, trace = denoise(noisy, replace(params, target_delta=delta))
        assert trace.converged
        oracle, oracle_trace = denoise(
            noisy, replace(params, lam=trace.lambda_history[-1], tol=1e-10))
        assert oracle_trace.converged
        assert np.abs(restored.values - oracle.values).max() <= 1e-5


class TestNewtonSweep:
    """The Newton step with its lagged fallback on a spread of shapes,
    sizes, noise levels and epsilons: every adaptive solve converges and
    lands on delta."""

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-1])
    @pytest.mark.parametrize("rel", [0.02, 0.30])
    @pytest.mark.parametrize("n", [16, 64, 512])
    @pytest.mark.parametrize("sampler", [sample_f_sine, sample_g_jumps],
                             ids=["sine", "jumps"])
    def test_converges_on_delta(self, sampler, n, rel, epsilon):
        clean = sampler(n)
        noisy = add_noise(clean, NoiseSpec(seed=7, delta_rel=rel))
        delta = float(np.linalg.norm(noisy.values - clean.values))
        params = replace(NLAP_1D, epsilon=epsilon, target_delta=delta,
                         max_iters=100)
        restored, trace = denoise_1d(noisy, params)
        assert trace.converged
        fid = np.linalg.norm(restored.values - noisy.values)
        assert abs(fid / delta - 1.0) <= 1e-4


class TestFilterParamsValidation:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            FilterParams(epsilon=0.0)

    @pytest.mark.parametrize("name", ["lam", "epsilon", "p", "dt", "tol",
                                      "target_delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FilterParams(**{name: value})

    def test_p_at_least_half(self):
        with pytest.raises(ValueError):
            FilterParams(p=0.4)

    def test_target_delta_positive(self):
        with pytest.raises(ValueError):
            FilterParams(target_delta=0.0)

    @pytest.mark.parametrize("value", [1e155, 1e300])
    def test_target_delta_square_finite(self, value):
        # the lambda estimate divides by delta**2, which overflows past
        # sqrt(float max); the largest delta with a finite square still runs
        with pytest.raises(ValueError, match="its square must be finite"):
            FilterParams(target_delta=value)
        largest = float(np.sqrt(np.finfo(float).max))
        u0 = sample_f_sine(16)
        assert adaptive_lambda(u0, u0, FilterParams(target_delta=largest)) == 0.0

    @pytest.mark.parametrize("value", [0, 1.5])
    def test_max_iters_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_iters"):
            FilterParams(max_iters=value)
