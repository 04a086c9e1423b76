import numpy as np
import pytest

from lapden import (
    Field2D,
    NoiseSpec,
    Signal1D,
    add_noise,
    compute_metrics,
    default_plateau_tau,
    gaussian_noise,
    sample_f2d,
    sample_f_sine,
    sample_g_jumps,
)


class TestSampleFSine:
    def test_known_values(self):
        s = sample_f_sine(100)
        assert len(s) == 101
        assert s.values[0] == 0.0
        assert s.values[25] == pytest.approx(1.0, abs=1e-12)  # x = 0.25
        assert s.values[100] == pytest.approx(0.0, abs=1e-12)  # sin(2*pi)

    def test_matches_pointwise_evaluation(self):
        s = sample_f_sine(200)
        x = np.arange(201) / 200
        assert np.array_equal(s.values, np.sin(2 * np.pi * x))

    def test_grid_units_default(self):
        s = sample_f_sine(50)
        assert s.h == 1.0
        assert s.domain == (-1.0, 51.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            sample_f_sine(3)


class TestSampleGJumps:
    def test_sign_arithmetic_at_half(self):
        g = sample_g_jumps(100)
        assert g.values[50] == pytest.approx(0.0, abs=1e-12)  # g(0.5) = 0

    def test_value_at_tenth(self):
        g = sample_g_jumps(100)
        assert g.values[10] == pytest.approx(np.sin(0.2 * np.pi), abs=1e-12)

    def test_four_discontinuities_at_n_1000(self):
        # jump-location oracle: threshold the first differences
        g = sample_g_jumps(1000)
        count = int(np.sum(np.abs(np.diff(g.values)) > 1.0))
        assert count == 4

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            sample_g_jumps(9)


class TestSampleF2D:
    def test_zero_on_x_axis(self):
        f = sample_f2d(65)  # odd n puts a node exactly at x = 0
        assert np.array_equal(f.values[32], np.zeros(65))

    def test_corner_value(self):
        f = sample_f2d(65)
        # x = 1 at i = 64, y = 0.5 at j = 48
        assert f.values[64, 48] == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetric_in_x(self):
        f = sample_f2d(64)
        assert np.array_equal(f.values[::-1, :], -f.values)


class TestGaussianNoise:
    def test_deterministic(self):
        spec = NoiseSpec(seed=123, delta_rel=0.1)
        a = gaussian_noise(1000, spec)
        b = gaussian_noise(1000, spec)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gaussian_noise(100, NoiseSpec(seed=1, delta_rel=0))
        b = gaussian_noise(100, NoiseSpec(seed=2, delta_rel=0))
        assert not np.array_equal(a, b)

    def test_mean_of_million_draws(self):
        z = gaussian_noise(1_000_000, NoiseSpec(seed=7, delta_rel=0))
        assert -0.005 <= z.mean() <= 0.005

    def test_variance_of_million_draws(self):
        z = gaussian_noise(1_000_000, NoiseSpec(seed=7, delta_rel=0))
        assert 0.99 <= z.var() <= 1.01

    def test_odd_count_is_prefix_of_even(self):
        spec = NoiseSpec(seed=5, delta_rel=0)
        assert np.array_equal(gaussian_noise(9, spec), gaussian_noise(10, spec)[:9])


class TestAddNoise:
    def test_zero_delta_unchanged(self):
        clean = sample_f_sine(40)
        noisy = add_noise(clean, NoiseSpec(seed=1, delta_rel=0.0))
        assert np.array_equal(noisy.values, clean.values)

    @pytest.mark.parametrize("delta_rel", [0.09, 0.05])
    def test_exact_calibration_1d(self, delta_rel):
        clean = sample_f_sine(100)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=delta_rel))
        measured = np.linalg.norm(noisy.values - clean.values) \
            / np.linalg.norm(clean.values)
        assert abs(measured - delta_rel) <= 1e-12

    def test_exact_calibration_2d(self):
        clean = sample_f2d(64)
        noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=0.05))
        measured = np.linalg.norm(noisy.values - clean.values) \
            / np.linalg.norm(clean.values)
        assert abs(measured - 0.05) <= 1e-12

    def test_reproducible_bitwise(self):
        clean = sample_g_jumps(80)
        spec = NoiseSpec(seed=9, delta_rel=0.09)
        assert np.array_equal(add_noise(clean, spec).values,
                              add_noise(clean, spec).values)

    def test_zero_norm_rejected(self):
        flat = Signal1D(np.zeros(10))
        with pytest.raises(ValueError):
            add_noise(flat, NoiseSpec(seed=1, delta_rel=0.1))


class TestComputeMetrics:
    def test_identical_inputs(self):
        u = Signal1D(np.full(20, 2.0))
        m = compute_metrics(u, u, tau=0.1)
        assert m.rel_err == 0.0
        assert m.rmse == 0.0
        assert m.psnr_db is None  # constant reference has zero range
        assert m.plateau_fraction == 1.0

    def test_rel_err_matches_noise_spec(self):
        clean = sample_f_sine(100)
        noisy = add_noise(clean, NoiseSpec(seed=4, delta_rel=0.09))
        m = compute_metrics(noisy, clean, tau=0.01)
        assert m.rel_err == pytest.approx(0.09, abs=1e-12)

    def test_staircase_hand_count(self):
        # 4 ascending steps over n samples: exactly 4 first differences
        # exceed tau, so plateau_fraction = (n - 5) / (n - 1)
        n = 45
        values = np.repeat(np.arange(5.0), 9)
        assert values.size == n
        m = compute_metrics(Signal1D(values), Signal1D(np.linspace(0, 4, n)),
                            tau=0.5)
        assert m.plateau_fraction == pytest.approx((n - 5) / (n - 1))

    def test_plateau_monotone_in_tau(self):
        rng = np.random.default_rng(31)
        u = Signal1D(rng.normal(size=200))
        ref = Signal1D(np.ones(200))
        taus = [0.01, 0.1, 0.5, 1.0, 5.0]
        fractions = [compute_metrics(u, ref, tau=t).plateau_fraction for t in taus]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_psnr_value(self):
        ref = Signal1D(np.linspace(0.0, 1.0, 11))
        u = Signal1D(ref.values + 0.1)
        m = compute_metrics(u, ref, tau=0.01)
        assert m.psnr_db == pytest.approx(20.0, abs=1e-9)  # range 1, rmse 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(Signal1D(np.ones(5)), Signal1D(np.ones(6)), tau=0.1)

    def test_curvature_mass_2d_uses_laplacian(self):
        rng = np.random.default_rng(32)
        u = Field2D(rng.normal(size=(6, 6)))
        ref = Field2D(np.ones((6, 6)) + np.arange(6.0))
        m = compute_metrics(u, ref, tau=0.1)
        v = u.values
        lap = v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:] \
            - 4 * v[1:-1, 1:-1]
        assert m.curvature_mass == pytest.approx(np.abs(lap).sum())


class TestDefaultPlateauTau:
    def test_tenth_of_mean_abs_difference(self):
        clean = sample_f_sine(100)
        expected = 0.1 * np.mean(np.abs(np.diff(clean.values)))
        assert default_plateau_tau(clean) == pytest.approx(expected, rel=1e-12)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(seed=1, delta_rel=float("nan"))


class TestSampleContainers:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_samples_rejected(self, bad):
        values = np.ones(6)
        values[4] = bad
        with pytest.raises(ValueError, match="samples must be finite.*index 4"):
            Signal1D(values)
        with pytest.raises(ValueError, match=r"samples must be finite.*\(1, 1\)"):
            Field2D(values.reshape(2, 3))

    @pytest.mark.parametrize("domain", [(float("nan"), 4.0),
                                        (float("inf"), float("inf")),
                                        (-float("inf"), -float("inf")),
                                        (float("nan"), float("nan"))],
                             ids=["nan-a", "inf-inf", "-inf--inf", "nan-nan"])
    def test_non_finite_domain_rejected(self, domain):
        # b - a is nan for each of these, which no length comparison rejects
        with pytest.raises(ValueError, match="domain ends must be finite"):
            Signal1D(np.ones(3), domain=domain)

    def test_infinite_spacing_rejected(self):
        with pytest.raises(ValueError, match="grid spacing"):
            Signal1D(np.ones(4), h=float("inf"))
        with pytest.raises(ValueError, match="grid spacing"):
            Field2D(np.ones((3, 3)), h=float("inf"))
