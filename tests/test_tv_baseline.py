import itertools

import numpy as np
import pytest
import scipy.linalg

import lapden.core as core
import lapden.tv_baseline as tv_baseline
from lapden import (
    Field2D,
    NoiseSpec,
    Signal1D,
    TvParams,
    add_noise,
    gaussian_noise,
    sample_f2d,
    sample_f_sine,
    sample_g_jumps,
    tv_denoise_1d,
    tv_denoise_2d,
    tv_rhs_1d,
    tv_rhs_2d,
)
from lapden.experiments import DELTA_REL_2D, TV_1D, TV_2D
from lapden.tv_baseline import (_dual_update, _pcg, _tridiagonal, _tv_apply, _tv_faces,
                                _tv_operator)


def fig_input_1d(sampler, seed):
    """The noisy signal of fig2 (sine) or fig3 (jumps) at n=100."""
    return add_noise(sampler(100), NoiseSpec(seed=seed, delta_rel=0.09))


def dense_tv_rhs_1d(values, u0, h, beta, lam):
    """Independent scalar-loop oracle with zero end fluxes."""
    n = len(values)
    fluxes = np.zeros(n + 1)  # flux through face i-1/2 at index i
    for i in range(1, n):
        d = (values[i] - values[i - 1]) / h
        fluxes[i] = d / np.sqrt(d * d + beta)
    out = np.zeros(n)
    for i in range(n):
        out[i] = (fluxes[i + 1] - fluxes[i]) / h - lam * (values[i] - u0[i])
    return out


def dense_tv_rhs_2d(values, u0, h, beta, lam):
    rows, cols = values.shape

    def mirror(i, j):
        if i < 0:
            i = 1
        elif i >= rows:
            i = rows - 2
        if j < 0:
            j = 1
        elif j >= cols:
            j = cols - 2
        return values[i, j]

    out = np.zeros_like(values)
    for i in range(rows):
        for j in range(cols):
            div = 0.0
            # x faces (i, j+1/2) and (i, j-1/2)
            for sg, jj in ((1, j), (-1, j - 1)):
                if 0 <= jj < cols - 1:
                    dx = (values[i, jj + 1] - values[i, jj]) / h
                    dy = (mirror(i + 1, jj) + mirror(i + 1, jj + 1)
                          - mirror(i - 1, jj) - mirror(i - 1, jj + 1)) / (4 * h)
                    div += sg * dx / np.sqrt(dx * dx + dy * dy + beta)
            # y faces
            for sg, ii in ((1, i), (-1, i - 1)):
                if 0 <= ii < rows - 1:
                    dy = (values[ii + 1, j] - values[ii, j]) / h
                    dx = (mirror(ii, j + 1) + mirror(ii + 1, j + 1)
                          - mirror(ii, j - 1) - mirror(ii + 1, j - 1)) / (4 * h)
                    div += sg * dy / np.sqrt(dy * dy + dx * dx + beta)
            out[i, j] = div / h - lam * (values[i, j] - u0[i, j])
    return out


def dense_tv_operator(faces, duals, shape, h, lam):
    """A = lam I - div(g grad) with g = (1 - w d/m)/(h^2 m) for the dual
    flux w, difference d and magnitude m = |grad u|_beta of each face,
    assembled face by face: each face couples the two nodes it separates."""
    index = np.arange(int(np.prod(shape))).reshape(shape)
    a = lam * np.eye(index.size)
    for (axis, diff, mag), dual in zip(faces, duals):
        for face in np.ndindex(mag.shape):
            after = list(face)
            after[axis] += 1
            i, j = index[face], index[tuple(after)]
            w = (1.0 - dual[face] * diff[face] / mag[face]) / (h * h * mag[face])
            a[i, i] += w
            a[j, j] += w
            a[i, j] -= w
            a[j, i] -= w
    return a


def random_duals(rng, faces):
    """A dual flux w in (-1, 1) on every face."""
    return [rng.uniform(-1.0, 1.0, size=diff.shape) for _, diff, _ in faces]


class TestTvOperator:
    """The matrix of one primal-dual Newton step, against a dense A."""

    def test_2d_matvec_and_diagonal(self):
        rng = np.random.default_rng(29)
        u = rng.normal(size=(5, 7))
        h, lam = 0.7, 0.3
        faces = _tv_faces(u, h, 1e-3)
        duals = random_duals(rng, faces)
        weights, diag = _tv_operator(faces, duals, u.shape, h, lam)
        a = dense_tv_operator(faces, duals, u.shape, h, lam)
        x = rng.normal(size=u.shape)
        assert np.allclose(_tv_apply(weights, lam, x).ravel(), a @ x.ravel(),
                           rtol=1e-13, atol=1e-12)
        assert np.allclose(diag.ravel(), np.diag(a), rtol=1e-14, atol=0)

    @staticmethod
    def cg_relative_residual(eta):
        # ||b - A x|| / ||b|| after CG to eta, against the dense A
        rng = np.random.default_rng(30)
        u = rng.normal(size=(5, 7))
        faces = _tv_faces(u, 1.0, 1e-3)
        duals = random_duals(rng, faces)
        weights, diag = _tv_operator(faces, duals, u.shape, 1.0, 0.3)
        b = rng.normal(size=u.shape)
        x = _pcg(lambda v: _tv_apply(weights, 0.3, v), diag, b, eta)
        a = dense_tv_operator(faces, duals, u.shape, 1.0, 0.3)
        return np.linalg.norm(b.ravel() - a @ x.ravel()) / np.linalg.norm(b)

    def test_2d_cg_meets_its_tolerance(self):
        assert self.cg_relative_residual(1e-2) <= 1e-2

    def test_2d_cg_meets_a_loose_tolerance(self):
        # core._ETA_MAX, the cap of the forcing rule
        assert self.cg_relative_residual(0.3) <= 0.3

    def test_1d_band(self):
        rng = np.random.default_rng(31)
        u = rng.normal(size=9)
        h, lam = 0.37, 0.8
        faces = _tv_faces(u, h, 1e-3)
        duals = random_duals(rng, faces)
        ab = _tridiagonal(*_tv_operator(faces, duals, u.shape, h, lam))
        band = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
        assert np.allclose(band, dense_tv_operator(faces, duals, u.shape, h, lam),
                           rtol=1e-14, atol=0)


class TestDualUpdate:
    """The dual step of the primal-dual Newton iteration."""

    def test_stays_in_the_box_on_random_faces(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            duals = [rng.uniform(-1.0, 1.0, size=size) for size in (7, 12)]
            duals[0][0] = 1.0  # a face already on the boundary of the box
            steps = [rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=w.size)
                     for w in duals]
            for w in _dual_update(duals, steps):
                assert np.all(np.abs(w) <= 1.0)

    def test_full_step_inside_the_box(self):
        duals = [np.array([0.5, -0.5, 0.0]), np.array([[0.2, -0.9]])]
        steps = [np.array([0.4, -0.4, 0.0]), np.array([[-0.8, 1.5]])]
        for w, dw, new in zip(duals, steps, _dual_update(duals, steps)):
            assert np.array_equal(new, w + dw)

    def test_cut_to_nine_tenths_of_the_longest_step(self):
        # the full step would take the second face to 1.5; |w| = 1 is reached
        # at s_max = 0.5, so every face moves 0.45 of its step
        duals = [np.array([0.0, 0.5]), np.array([-0.2])]
        steps = [np.array([0.3, 1.0]), np.array([-0.6])]
        new = _dual_update(duals, steps)
        assert np.array_equal(new[0], np.array([0.0 + 0.45 * 0.3, 0.5 + 0.45]))
        assert np.array_equal(new[1], np.array([-0.2 - 0.45 * 0.6]))

    def test_faces_that_do_not_move_do_not_limit_the_step(self):
        duals = [np.array([1.0, -1.0, 0.3])]
        steps = [np.array([0.0, 0.0, 0.5])]
        assert np.array_equal(_dual_update(duals, steps)[0],
                              np.array([1.0, -1.0, 0.8]))


class TestTvRhs1D:
    def test_constant_is_zero(self):
        u = Signal1D(np.full(10, 2.0))
        assert np.array_equal(tv_rhs_1d(u, u, TvParams()), np.zeros(10))

    def test_linear_ramp_interior(self):
        u = Signal1D(np.linspace(0.0, 3.0, 16))
        out = tv_rhs_1d(u, u, TvParams(lam=0.0))
        assert np.allclose(out[2:-2], 0.0, rtol=0, atol=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(21)
        u = Signal1D(rng.normal(size=8))
        u0 = Signal1D(rng.normal(size=8))
        params = TvParams(lam=0.4, beta=1e-4)
        expected = dense_tv_rhs_1d(u.values, u0.values, 1.0, params.beta, params.lam)
        assert np.allclose(tv_rhs_1d(u, u0, params), expected,
                           rtol=1e-13, atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_rhs_1d(Signal1D(np.ones(5)), Signal1D(np.ones(7)), TvParams())


class TestTvRhs2D:
    def test_constant_is_zero(self):
        f = Field2D(np.full((5, 4), -3.0))
        assert np.array_equal(tv_rhs_2d(f, f, TvParams()).values, np.zeros((5, 4)))

    def test_dense_oracle(self):
        rng = np.random.default_rng(22)
        u = Field2D(rng.normal(size=(5, 5)))
        u0 = Field2D(rng.normal(size=(5, 5)))
        params = TvParams(lam=0.3, beta=1e-3)
        expected = dense_tv_rhs_2d(u.values, u0.values, 1.0, params.beta, params.lam)
        assert np.allclose(tv_rhs_2d(u, u0, params).values, expected,
                           rtol=1e-12, atol=1e-13)

    def test_faces_bit_identical_to_np_pad_formula(self):
        # the mirror ghosts built by np.pad, with the averages summed in the
        # same order: the sliced ghosts must not change a single bit
        def padded_faces(values, h, beta):
            p = np.pad(values, 1, mode="reflect")
            dx = (values[:, 1:] - values[:, :-1]) / h
            dy_at_x = (p[2:, 1:-2] + p[2:, 2:-1] - p[:-2, 1:-2] - p[:-2, 2:-1]) / (4.0 * h)
            dy = (values[1:, :] - values[:-1, :]) / h
            dx_at_y = (p[1:-2, 2:] + p[2:-1, 2:] - p[1:-2, :-2] - p[2:-1, :-2]) / (4.0 * h)
            return (np.sqrt(dx * dx + dy_at_x * dy_at_x + beta),
                    np.sqrt(dy * dy + dx_at_y * dx_at_y + beta))

        rng = np.random.default_rng(32)
        for shape in ((3, 3), (3, 8), (9, 4), (33, 32)):
            for h in (1.0, 0.37):
                u = rng.normal(scale=10.0, size=shape)
                mags = [mag for _, _, mag in _tv_faces(u, h, 1e-6)]
                for mag, expected in zip(mags, padded_faces(u, h, 1e-6)):
                    assert np.array_equal(mag, expected)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(23)
        u = Field2D(rng.normal(size=(6, 6)))
        u0 = Field2D(rng.normal(size=(6, 6)))
        params = TvParams(lam=0.5)
        rot = tv_rhs_2d(u.with_values(np.rot90(u.values)),
                        u0.with_values(np.rot90(u0.values)), params).values
        assert np.allclose(rot, np.rot90(tv_rhs_2d(u, u0, params).values),
                           rtol=0, atol=1e-12)


class TestFaceFluxBound:
    def test_below_one_for_any_difference(self):
        rng = np.random.default_rng(24)
        d = rng.normal(scale=100.0, size=10_000)
        for beta in (1e-8, 1e-6, 1e-2):
            mag = np.abs(d / np.sqrt(d * d + beta))
            assert mag.max() < 1.0


class TestTvDenoise1D:
    def test_constant_fixed_point(self):
        u0 = Signal1D(np.full(12, 1.5))
        restored, trace = tv_denoise_1d(u0, TvParams(lam=1.0))
        assert np.array_equal(restored.values, u0.values)
        assert trace.converged
        assert trace.iters_run == 1

    def test_noisy_sine_improves(self):
        clean = sample_f_sine(100)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.09))
        restored, trace = tv_denoise_1d(
            noisy, TvParams(lam=3.0, tol=1e-6, max_iters=1_000))
        assert trace.converged
        rel = np.linalg.norm(restored.values - clean.values) \
            / np.linalg.norm(clean.values)
        assert rel < 0.09

    def test_negation_and_mirror_equivariance(self):
        base = Signal1D(gaussian_noise(30, NoiseSpec(seed=25, delta_rel=0)))
        params = TvParams(lam=1.0, max_iters=200, tol=1e-300)
        plain, _ = tv_denoise_1d(base, params)
        neg, _ = tv_denoise_1d(base.with_values(-base.values), params)
        assert np.array_equal(neg.values, -plain.values)
        mirrored, _ = tv_denoise_1d(base.with_values(base.values[::-1]), params)
        assert np.allclose(mirrored.values[::-1], plain.values, rtol=0, atol=1e-12)

    def test_zero_lambda_rejected(self):
        u0 = Signal1D(np.linspace(0.0, 1.0, 20))
        with pytest.raises(ValueError, match="lam.*fidelity weight must be positive"):
            tv_denoise_1d(u0, TvParams(lam=0.0))

    def test_stationary_residual_on_convergence(self):
        clean = sample_f_sine(60)
        noisy = add_noise(clean, NoiseSpec(seed=26, delta_rel=0.05))
        params = TvParams(lam=2.0, tol=1e-6, max_iters=1_000)
        restored, trace = tv_denoise_1d(noisy, params)
        assert trace.converged
        stat = np.linalg.norm(tv_rhs_1d(restored, noisy, params))
        anchor = params.lam * np.linalg.norm(restored.values - noisy.values)
        assert stat <= 10.0 * params.tol * anchor

    def test_integer_lambda_matches_float(self):
        noisy = fig_input_1d(sample_f_sine, 42)
        as_int, _ = tv_denoise_1d(noisy, TvParams(lam=3))
        as_float, _ = tv_denoise_1d(noisy, TvParams(lam=3.0))
        assert np.array_equal(as_int.values, as_float.values)


class TestTvDenoise2D:
    def test_constant_fixed_point(self):
        f = Field2D(np.full((5, 5), 0.25))
        restored, trace = tv_denoise_2d(f, TvParams(lam=1.0))
        assert np.array_equal(restored.values, f.values)
        assert trace.converged

    def test_small_field_improves(self):
        clean = Field2D(np.add.outer(np.linspace(0, 1, 16), np.zeros(16)))
        noisy = add_noise(clean, NoiseSpec(seed=27, delta_rel=0.1))
        restored, trace = tv_denoise_2d(
            noisy, TvParams(lam=8.0, tol=1e-5, max_iters=1_000))
        err_before = np.linalg.norm(noisy.values - clean.values)
        err_after = np.linalg.norm(restored.values - clean.values)
        assert err_after < err_before

    def test_negation_equivariance(self):
        f = Field2D(gaussian_noise(49, NoiseSpec(seed=28, delta_rel=0)).reshape(7, 7))
        params = TvParams(lam=1.0, max_iters=60, tol=1e-300)
        pos, _ = tv_denoise_2d(f, params)
        neg, _ = tv_denoise_2d(f.with_values(-f.values), params)
        assert np.array_equal(neg.values, -pos.values)

    def test_zero_lambda_rejected(self):
        f = Field2D(np.add.outer(np.arange(4.0), np.arange(5.0)))
        with pytest.raises(ValueError, match="lam.*fidelity weight must be positive"):
            tv_denoise_2d(f, TvParams(lam=0.0))

    def test_small_field_rejected(self):
        with pytest.raises(ValueError):
            tv_denoise_2d(Field2D(np.ones((2, 3))), TvParams())

    def test_integer_lambda_matches_float(self):
        noisy = add_noise(sample_f2d(16), NoiseSpec(seed=42, delta_rel=DELTA_REL_2D))
        as_int, _ = tv_denoise_2d(noisy, TvParams(lam=10))
        as_float, _ = tv_denoise_2d(noisy, TvParams(lam=10.0))
        assert np.array_equal(as_int.values, as_float.values)


class TestTvParamsValidation:
    def test_beta_positive(self):
        with pytest.raises(ValueError):
            TvParams(beta=0.0)

    @pytest.mark.parametrize("name", ["lam", "beta", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TvParams(**{name: value})

    @pytest.mark.parametrize("value", [0, 2.5])
    def test_max_iters_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_iters"):
            TvParams(max_iters=value)


class TestLaggedDiffusivity:
    @pytest.mark.parametrize("sampler", [sample_f_sine, sample_g_jumps],
                             ids=["fig2", "fig3"])
    def test_energy_never_increases(self, sampler, monkeypatch):
        # Chan & Mulet's theorem covers the lagged-diffusivity step, whose
        # exact 1D form lowers the regularized ROF energy at every step; no
        # theorem covers the primal-dual Newton step, so that it lowers the
        # energy from w = 0 is an observed property, checked on every
        # iterate the loop checks
        iterates = []

        def recording(u0v, u, tol, max_iters, residual, step):
            def recorded(u, it):
                iterates.append(u.copy())
                return residual(u, it)
            return core._iterate(u0v, u, tol, max_iters, recorded, step)

        monkeypatch.setattr(tv_baseline, "_iterate", recording)
        beta, lam = TV_1D.beta, TV_1D.lam
        for seed in range(10):
            iterates.clear()
            noisy = fig_input_1d(sampler, seed)
            h = noisy.h
            _, trace = tv_denoise_1d(noisy, TV_1D)
            assert trace.converged
            assert len(iterates) == trace.iters_run
            energy = []
            for u in iterates:
                d = np.diff(u) / h
                fid = float(np.linalg.norm(u - noisy.values))
                energy.append(float(np.sum(np.sqrt(d * d + beta))) * h
                              + 0.5 * lam * fid * fid * h)
            assert np.all(np.diff(energy) <= 0.0), seed

    @pytest.mark.parametrize("sampler", [sample_f_sine, sample_g_jumps],
                             ids=["fig2", "fig3"])
    def test_1d_iteration_count(self, sampler):
        _, trace = tv_denoise_1d(fig_input_1d(sampler, 42), TV_1D)
        assert trace.converged
        assert trace.iters_run < 20

    def test_2d_iteration_count(self):
        noisy = add_noise(sample_f2d(64), NoiseSpec(seed=42, delta_rel=0.05))
        _, trace = tv_denoise_2d(noisy, TV_2D)
        assert trace.converged
        assert trace.iters_run < 40

    def test_full_scale_2d_converges(self):
        # fig5 at the full-scale n=200
        noisy = add_noise(sample_f2d(200), NoiseSpec(seed=42, delta_rel=DELTA_REL_2D))
        restored, trace = tv_denoise_2d(noisy, TV_2D)
        assert trace.converged
        assert trace.iters_run < 40
        stat = np.linalg.norm(tv_rhs_2d(restored, noisy, TV_2D).values)
        anchor = TV_2D.lam * np.linalg.norm(restored.values - noisy.values)
        assert stat <= 10.0 * TV_2D.tol * anchor

    def test_histories_describe_the_checked_iterates(self):
        noisy = fig_input_1d(sample_g_jumps, 3)
        params = TvParams(lam=3.0, max_iters=5, tol=1e-300)
        restored, trace = tv_denoise_1d(noisy, params)
        assert not trace.converged
        assert trace.iters_run == 6
        assert trace.dt_used is None
        assert trace.residual_history[0] == np.linalg.norm(
            tv_rhs_1d(noisy, noisy, params))
        assert trace.fidelity_history[0] == 0.0
        assert trace.residual_history[-1] == np.linalg.norm(
            tv_rhs_1d(restored, noisy, params))
        assert trace.fidelity_history[-1] == np.linalg.norm(
            restored.values - noisy.values)

    def test_first_step_is_the_lagged_step(self):
        # from w = 0 the face weights are 1/(h^2 |grad u|_beta), so the first
        # correction is the lagged-diffusivity step, bit for bit
        noisy = fig_input_1d(sample_g_jumps, 4)
        params = TvParams(lam=3.0, max_iters=1, tol=1e-300)
        stepped, trace = tv_denoise_1d(noisy, params)
        assert trace.iters_run == 2
        u = noisy.values
        faces = _tv_faces(u, noisy.h, params.beta)
        weights, diag = _tv_operator(faces, [np.zeros(u.size - 1)], u.shape,
                                     noisy.h, params.lam)
        mag = faces[0][2]
        assert np.array_equal(weights[0][2], 1.0 / (noisy.h * noisy.h * mag))
        lagged = u + scipy.linalg.solveh_banded(
            _tridiagonal(weights, diag), tv_rhs_1d(noisy, noisy, params))
        assert np.array_equal(stepped.values, lagged)


class TestPrimalDualSweep:
    def test_every_case_converges_in_few_steps(self):
        # sine/jumps at n = 16/64/512 and fields at n = 16/48, across noise,
        # lam and beta: at most 43 steps, where lagged diffusivity took up
        # to 1,213
        for kind, n, noise, lam, beta in itertools.product(
                ("sine", "jumps", "field"), (16, 64, 512), (0.02, 0.09, 0.30),
                (0.5, 3.0, 10.0), (1e-6, 1e-3)):
            if kind == "field":
                if n == 512:
                    continue
                clean, denoise = sample_f2d(min(n, 48)), tv_denoise_2d
            else:
                sampler = sample_f_sine if kind == "sine" else sample_g_jumps
                clean, denoise = sampler(n), tv_denoise_1d
            noisy = add_noise(clean, NoiseSpec(seed=7, delta_rel=noise))
            _, trace = denoise(noisy, TvParams(lam=lam, beta=beta, max_iters=50))
            assert trace.converged, (kind, n, noise, lam, beta)
