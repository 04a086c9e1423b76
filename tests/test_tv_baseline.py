import numpy as np
import pytest

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
from lapden.experiments import TV_1D, TV_2D


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
            noisy, TvParams(lam=3.0, tol=1e-6, max_iters=400_000))
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
        params = TvParams(lam=2.0, tol=1e-6, max_iters=400_000)
        restored, trace = tv_denoise_1d(noisy, params)
        assert trace.converged
        stat = np.linalg.norm(tv_rhs_1d(restored, noisy, params))
        anchor = params.lam * np.linalg.norm(restored.values - noisy.values)
        assert stat <= 10.0 * params.tol * anchor


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
            noisy, TvParams(lam=8.0, tol=1e-5, max_iters=400_000))
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


class TestTvParamsValidation:
    def test_beta_positive(self):
        with pytest.raises(ValueError):
            TvParams(beta=0.0)

    @pytest.mark.parametrize("name", ["lam", "beta", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TvParams(**{name: value})


class TestLaggedDiffusivity:
    @pytest.mark.parametrize("sampler", [sample_f_sine, sample_g_jumps],
                             ids=["fig2", "fig3"])
    def test_energy_never_increases(self, sampler):
        for seed in range(10):
            _, trace = tv_denoise_1d(fig_input_1d(sampler, seed), TV_1D)
            assert trace.converged
            assert np.all(np.diff(trace.energy_history) <= 0.0), seed

    @pytest.mark.parametrize("sampler", [sample_f_sine, sample_g_jumps],
                             ids=["fig2", "fig3"])
    def test_1d_iteration_count(self, sampler):
        _, trace = tv_denoise_1d(fig_input_1d(sampler, 42), TV_1D)
        assert trace.converged
        assert trace.iters_run < 1_000

    def test_2d_iteration_count(self):
        noisy = add_noise(sample_f2d(64), NoiseSpec(seed=42, delta_rel=0.05))
        _, trace = tv_denoise_2d(noisy, TV_2D)
        assert trace.converged
        assert trace.iters_run < 500

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
