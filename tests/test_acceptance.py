"""Acceptance suite: every criterion as one test, at its stated tolerance."""

import filecmp
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lapden as L
from lapden.cli import main
from lapden.experiments import NLAP_1D, NLAP_2D, TV_1D, TV_2D, \
    preserved_jump_count

from test_grid_ops import dense_d0, dense_d1
from test_nl_filter import dense_lap2d

# regression baselines recorded at freeze time (seed 42, defaults)
FIG2_NLAP_REL_ERR_BASELINE = 0.05431685473450227
FIG5_NLAP_REL_ERR_BASELINE = 0.018846610902543533


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig2_runs():
    clean = L.sample_f_sine(100)
    noisy = L.add_noise(clean, L.NoiseSpec(seed=42, delta_rel=0.09))
    delta = float(np.linalg.norm(noisy.values - clean.values))
    nlap_params = replace(NLAP_1D, target_delta=delta)
    (u_nl, tr_nl), t_nl = _timed(lambda: L.denoise_1d(noisy, nlap_params))
    (u_tv, tr_tv), t_tv = _timed(lambda: L.tv_denoise_1d(noisy, TV_1D))
    return dict(clean=clean, noisy=noisy, delta=delta,
                nlap=(u_nl, tr_nl, nlap_params), tv=(u_tv, tr_tv, TV_1D),
                seconds=t_nl + t_tv)


@pytest.fixture(scope="module")
def fig3_runs():
    clean = L.sample_g_jumps(100)
    noisy = L.add_noise(clean, L.NoiseSpec(seed=42, delta_rel=0.09))
    delta = float(np.linalg.norm(noisy.values - clean.values))
    nlap_params = replace(NLAP_1D, target_delta=delta)
    u_nl, tr_nl = L.denoise_1d(noisy, nlap_params)
    u_tv, tr_tv = L.tv_denoise_1d(noisy, TV_1D)
    return dict(clean=clean, noisy=noisy, delta=delta,
                nlap=(u_nl, tr_nl, nlap_params), tv=(u_tv, tr_tv, TV_1D))


@pytest.fixture(scope="module")
def fig5_runs():
    clean = L.sample_f2d(64)
    noisy = L.add_noise(clean, L.NoiseSpec(seed=42, delta_rel=0.05))
    delta = float(np.linalg.norm(noisy.values - clean.values))
    nlap_params = replace(NLAP_2D, target_delta=delta)
    (u_nl, tr_nl), t_nl = _timed(lambda: L.denoise_2d(noisy, nlap_params))
    (u_tv, tr_tv), t_tv = _timed(lambda: L.tv_denoise_2d(noisy, TV_2D))
    return dict(clean=clean, noisy=noisy, delta=delta,
                nlap=(u_nl, tr_nl, nlap_params), tv=(u_tv, tr_tv, TV_2D),
                nlap_seconds=t_nl, tv_seconds=t_tv)


def test_criterion_01_operator_convergence_order():
    def run():
        errs = {}
        for n in (50, 100, 200, 400):
            h = 1.0 / n
            x = np.arange(n + 1) / n
            u = np.sin(2 * np.pi * x)
            d2u = L.apply_banded(L.build_d0(n + 1, h), u)
            exact = -4 * np.pi**2 * np.sin(2 * np.pi * x)
            errs[n] = np.abs(d2u - exact)[1:-1].max()
        return errs

    errs, seconds = _timed(run)
    for n in (50, 100, 200):
        order = np.log2(errs[n] / errs[2 * n])
        assert 1.7 <= order <= 2.3, f"empirical order {order} at n={n}"
    assert seconds < 1.0
    print(f"criterion 1: orders ok, {seconds * 1e3:.0f} ms")


def test_criterion_02_one_step_oracle_equivalence():
    def run():
        rng = np.random.default_rng(1234)
        for _ in range(100):
            # 1D instance
            n = int(rng.integers(3, 9))
            u0 = L.Signal1D(rng.normal(size=n))
            lam = float(rng.uniform(0, 2))
            eps = float(rng.uniform(1e-3, 1e-1))
            p = float(rng.uniform(0.5, 1.5))
            dt = 1e-3
            params = L.FilterParams(lam=lam, epsilon=eps, p=p, dt=dt,
                                    max_iters=1, tol=1e-300)
            stepped, _ = L.denoise_1d(u0, params)
            d0, d1 = dense_d0(n, 1.0), dense_d1(n, 1.0)
            expect = u0.values - dt * (d1 @ L.flux(d0 @ u0.values, eps, p))
            err = np.linalg.norm(stepped.values - expect)
            assert err <= 1e-12 * max(np.linalg.norm(expect), 1.0)
            # arbitrary-state right-hand side, exercising the fidelity term
            u = L.Signal1D(rng.normal(size=n))
            rhs = L.rhs_1d(u, u0, params)
            expect_rhs = -(d1 @ L.flux(d0 @ u.values, eps, p)) \
                - lam * (u.values - u0.values)
            assert np.linalg.norm(rhs - expect_rhs) <= \
                1e-12 * max(np.linalg.norm(expect_rhs), 1.0)

            # 2D instance, warm-started so u != u0 in the single step
            f0 = L.Field2D(rng.normal(size=(5, 5)))
            warm = L.Field2D(rng.normal(size=(5, 5)))
            stepped2, _ = L.denoise_2d(f0, params, warm_start=warm)
            inner = dense_lap2d(warm.values, 1.0, "neumann")
            rhs2 = -dense_lap2d(L.flux(inner, eps, p), 1.0, "dirichlet") \
                - lam * (warm.values - f0.values)
            expect2 = warm.values + dt * rhs2
            err2 = np.linalg.norm(stepped2.values - expect2)
            assert err2 <= 1e-12 * max(np.linalg.norm(expect2), 1.0)

    _, seconds = _timed(run)
    assert seconds < 5.0
    print(f"criterion 2: 100 instances ok, {seconds:.2f} s")


def test_criterion_03_equilibrium_certificate(fig2_runs, fig5_runs):
    runs = []
    u_nl, tr_nl, p_nl = fig2_runs["nlap"]
    runs.append(("1d-nlap-semi", fig2_runs["noisy"], u_nl, tr_nl, p_nl))
    u_tv, tr_tv, p_tv = fig2_runs["tv"]
    runs.append(("1d-tv", fig2_runs["noisy"], u_tv, tr_tv, p_tv))
    u_nl2, tr_nl2, p_nl2 = fig5_runs["nlap"]
    runs.append(("2d-nlap", fig5_runs["noisy"], u_nl2, tr_nl2, p_nl2))
    u_tv2, tr_tv2, p_tv2 = fig5_runs["tv"]
    runs.append(("2d-tv", fig5_runs["noisy"], u_tv2, tr_tv2, p_tv2))

    # two extra seeded runs to span the explicit 1D solver and a second seed
    clean = L.sample_f_sine(60)
    noisy7 = L.add_noise(clean, L.NoiseSpec(seed=7, delta_rel=0.05))
    p_expl = L.FilterParams(lam=1.0, tol=1e-6,
                            dt=0.9 * L.stable_step_bound(1.0, 1e-2, 0.5, 1.0))
    u_e, tr_e = L.denoise_1d(noisy7, p_expl)
    assert tr_e.dt_used is not None, "the explicit run took no time steps"
    runs.append(("1d-nlap-explicit", noisy7, u_e, tr_e, p_expl))
    p_tv7 = L.TvParams(lam=4.0, tol=1e-6, max_iters=400_000)
    u_t7, tr_t7 = L.tv_denoise_1d(noisy7, p_tv7)
    runs.append(("1d-tv-seed7", noisy7, u_t7, tr_t7, p_tv7))

    assert len(runs) >= 6
    for label, u0, u, trace, params in runs:
        assert trace.converged, f"{label} did not converge"
        lam = trace.lambda_history[-1]
        if isinstance(params, L.TvParams):
            if isinstance(u, L.Signal1D):
                stat = L.tv_rhs_1d(u, u0, params)
            else:
                stat = L.tv_rhs_2d(u, u0, params).values
        else:
            frozen = replace(params, target_delta=None, lam=lam)
            if isinstance(u, L.Signal1D):
                stat = L.rhs_1d(u, u0, frozen)
            else:
                stat = L.rhs_2d(u, u0, frozen).values
        anchor = lam * np.linalg.norm(u.values - u0.values)
        resid = np.linalg.norm(stat)
        assert resid <= 10.0 * params.tol * anchor, \
            f"{label}: residual {resid:.3e} vs bound {10 * params.tol * anchor:.3e}"
        print(f"criterion 3: {label} residual ratio "
              f"{resid / anchor:.2e} <= {10 * params.tol:.0e}")


def test_criterion_04_equivariance_suite():
    rng = np.random.default_rng(99)
    sig = L.Signal1D(rng.normal(size=32))
    fld = L.Field2D(rng.normal(size=(9, 9)))
    nl = L.FilterParams(lam=1.0, max_iters=60, tol=1e-300)
    tv = L.TvParams(lam=1.0, max_iters=60, tol=1e-300)

    base_nl, _ = L.denoise_1d(sig, nl)
    base_tv, _ = L.tv_denoise_1d(sig, tv)
    scale = np.abs(base_nl.values).max()

    for method, base in (("nlap", (L.denoise_1d, nl, base_nl)),
                         ("tv", (L.tv_denoise_1d, tv, base_tv))):
        run, params, ref = base
        neg, _ = run(sig.with_values(-sig.values), params)
        assert np.array_equal(neg.values, -ref.values), f"{method} negation"
        shifted, _ = run(sig.with_values(sig.values + 5.0), params)
        assert np.allclose(shifted.values, ref.values + 5.0,
                           rtol=0, atol=1e-11 * max(scale, 5.0)), f"{method} shift"
        mirrored, _ = run(sig.with_values(sig.values[::-1]), params)
        assert np.allclose(mirrored.values[::-1], ref.values,
                           rtol=0, atol=1e-11 * max(scale, 1.0)), f"{method} mirror"

    base2_nl, _ = L.denoise_2d(fld, nl)
    base2_tv, _ = L.tv_denoise_2d(fld, tv)
    for method, run, params, ref in (("nlap", L.denoise_2d, nl, base2_nl),
                                     ("tv", L.tv_denoise_2d, tv, base2_tv)):
        neg, _ = run(fld.with_values(-fld.values), params)
        assert np.array_equal(neg.values, -ref.values), f"{method} 2d negation"
        rot, _ = run(fld.with_values(np.rot90(fld.values)), params)
        assert np.allclose(rot.values, np.rot90(ref.values),
                           rtol=0, atol=1e-11), f"{method} rotation"
        flipped, _ = run(fld.with_values(fld.values[::-1, :]), params)
        assert np.allclose(flipped.values[::-1, :], ref.values,
                           rtol=0, atol=1e-11), f"{method} flip"
    print("criterion 4: all equivariances hold")


def test_criterion_05_sine_reproduction(fig2_runs):
    clean, delta = fig2_runs["clean"], fig2_runs["delta"]
    norm = np.linalg.norm(clean.values)
    u_nl, tr_nl, _ = fig2_runs["nlap"]
    u_tv, tr_tv, _ = fig2_runs["tv"]
    rel_nl = np.linalg.norm(u_nl.values - clean.values) / norm
    rel_tv = np.linalg.norm(u_tv.values - clean.values) / norm
    assert rel_nl < 0.09
    assert rel_tv < 0.09
    assert rel_nl <= FIG2_NLAP_REL_ERR_BASELINE * 1.1
    assert fig2_runs["seconds"] < 60.0
    print(f"criterion 5: nlap {rel_nl:.4f}, tv {rel_tv:.4f}, "
          f"{fig2_runs['seconds']:.2f} s")


def test_criterion_06_staircase_and_jumps(fig2_runs, fig3_runs):
    tau = L.default_plateau_tau(fig2_runs["clean"])
    u_nl = fig2_runs["nlap"][0]
    u_tv = fig2_runs["tv"][0]
    plat_nl = L.compute_metrics(u_nl, fig2_runs["clean"], tau).plateau_fraction
    plat_tv = L.compute_metrics(u_tv, fig2_runs["clean"], tau).plateau_fraction
    assert plat_tv > plat_nl, f"tv {plat_tv} vs nlap {plat_nl}"

    clean, noisy = fig3_runs["clean"], fig3_runs["noisy"]
    u_jump = fig3_runs["nlap"][0]
    jump_nodes = [20, 40, 60, 80]
    assert preserved_jump_count(u_jump.values, jump_nodes, height=2.0) == 4
    norm = np.linalg.norm(clean.values)
    rel_restored = np.linalg.norm(u_jump.values - clean.values) / norm
    rel_noisy = np.linalg.norm(noisy.values - clean.values) / norm
    assert rel_restored < rel_noisy

    # the staircase ordering also shows on the jump signal
    tau3 = L.default_plateau_tau(clean)
    plat3_nl = L.compute_metrics(u_jump, clean, tau3).plateau_fraction
    plat3_tv = L.compute_metrics(fig3_runs["tv"][0], clean, tau3).plateau_fraction
    assert plat3_tv > plat3_nl
    print(f"criterion 6: plateau tv {plat_tv:.2f} > nlap {plat_nl:.2f}; "
          f"4 jumps preserved, rel {rel_noisy:.3f} -> {rel_restored:.3f}")


def test_criterion_07_2d_reproduction(fig5_runs):
    clean = fig5_runs["clean"]
    u_nl, tr_nl, _ = fig5_runs["nlap"]
    rel = np.linalg.norm(u_nl.values - clean.values) / np.linalg.norm(clean.values)
    assert rel < 0.05
    assert rel <= FIG5_NLAP_REL_ERR_BASELINE * 1.1
    assert fig5_runs["nlap_seconds"] < 600.0
    print(f"criterion 7: rel_err {rel:.4f} in {fig5_runs['nlap_seconds']:.1f} s")


def test_criterion_08_adaptive_lambda_closed_loop(fig2_runs):
    u_nl, tr_nl, _ = fig2_runs["nlap"]
    delta = fig2_runs["delta"]
    assert tr_nl.converged
    fid = np.linalg.norm(u_nl.values - fig2_runs["noisy"].values)
    assert abs(fid - delta) <= 0.05 * delta
    print(f"criterion 8: fidelity/delta = {fid / delta:.5f}")


def test_criterion_09_noise_calibration():
    shapes = [
        (L.sample_f_sine(100), 0.09),
        (L.sample_g_jumps(100), 0.09),
        (L.sample_f2d(64), 0.05),
        (L.sample_f2d(200), 0.05),
    ]
    for clean, delta_rel in shapes:
        noisy = L.add_noise(clean, L.NoiseSpec(seed=42, delta_rel=delta_rel))
        measured = np.linalg.norm(noisy.values - clean.values) \
            / np.linalg.norm(clean.values)
        assert abs(measured - delta_rel) <= 1e-12
    print("criterion 9: calibration exact on all experiment shapes")


def test_criterion_10_io_bit_exactness(tmp_path):
    # CSV round trip is exact
    rng = np.random.default_rng(77)
    sig = L.Signal1D(rng.normal(size=101) * 1e3)
    csv_path = tmp_path / "sig.csv"
    L.write_csv_1d(csv_path, sig)
    assert np.array_equal(L.read_csv_1d(csv_path).values, sig.values)

    # PGM round trip within the quantization bound
    fld = L.Field2D(rng.uniform(size=(32, 17)))
    pgm_path = tmp_path / "f.pgm"
    L.write_pgm(pgm_path, fld)
    assert np.abs(L.read_pgm(pgm_path).values - fld.values).max() <= 1 / 510 + 1e-15

    # repeated same-seed experiments produce byte-identical artifacts
    for name in ("fig2", "fig4"):
        d1 = tmp_path / f"{name}_a"
        d2 = tmp_path / f"{name}_b"
        assert main(["experiment", name, "--seed", "11", "--outdir", str(d1)]) == 0
        assert main(["experiment", name, "--seed", "11", "--outdir", str(d2)]) == 0
        artifacts = sorted(p.name for p in d1.iterdir() if "report" not in p.name)
        assert artifacts, "experiment produced no artifacts"
        for fname in artifacts:
            assert filecmp.cmp(d1 / fname, d2 / fname, shallow=False), fname
    print("criterion 10: round trips exact, artifacts byte-identical")
