from dataclasses import replace

import numpy as np
import pytest

import lapden.core as core
import lapden.nl_filter as nl_filter
import lapden.tv_baseline as tv_baseline
from lapden import (NoiseSpec, RunTrace, add_noise, denoise_2d, sample_f2d,
                    tv_denoise_2d)
from lapden.experiments import DELTA_REL_2D, NLAP_2D, TV_2D

HISTORIES = ("residual_history", "fidelity_history", "lambda_history")


class TestRunTrace:
    @pytest.mark.parametrize("short", HISTORIES)
    def test_unequal_histories_rejected(self, short):
        histories = {name: np.ones(2 if name == short else 3) for name in HISTORIES}
        with pytest.raises(ValueError, match="length iters_run"):
            RunTrace(3, **histories, dt_used=None, converged=False)


class TestForcingTerm:
    """Eisenstat & Walker's choice 2 for the 2D inner solves' tolerance."""

    def test_first_correction(self):
        assert core._forcing_term(1.0, None, 0.0) == core._ETA_FIRST

    def test_ratio_rule(self):
        # gamma (||r_k|| / ||r_k-1||)^alpha, under the cap
        eta = core._forcing_term(0.25, (1.0, 0.1), 0.0)
        assert eta == pytest.approx(core._ETA_GAMMA * 0.25**core._ETA_ALPHA)
        assert eta < core._ETA_MAX

    @pytest.mark.parametrize("stat", [0.9, 2.0], ids=["ratio-0.9", "ratio-2"])
    def test_capped(self, stat):
        assert core._forcing_term(stat, (1.0, 0.1), 0.0) == core._ETA_MAX

    def test_safeguard_after_a_loose_solve(self):
        # gamma eta_prev^alpha = 0.18 > 0.1 outweighs a fast-falling ratio
        eta = core._forcing_term(0.1, (1.0, 0.45), 0.0)
        assert eta == pytest.approx(core._ETA_GAMMA * 0.45**core._ETA_ALPHA)

    def test_safeguard_inactive_at_or_below_a_tenth(self):
        # after eta_prev = _ETA_MAX the safeguard is 0.081 and does not apply
        eta = core._forcing_term(0.1, (1.0, core._ETA_MAX), 0.0)
        assert eta == pytest.approx(core._ETA_GAMMA * 0.1**core._ETA_ALPHA)

    @pytest.mark.parametrize("prev", [None, (1.0, 0.1), (0.5, 0.1)],
                             ids=["first", "ratio", "capped"])
    def test_floored_at_the_stop_rule(self, prev):
        # slack / ||r||: no solve goes past half the stop rule's bound, not
        # even past the cap
        assert core._forcing_term(1.0, prev, 0.4) == pytest.approx(0.4)

    def test_floor_below_the_rule_does_nothing(self):
        assert core._forcing_term(0.25, (1.0, 0.1), 1e-9) \
            == core._forcing_term(0.25, (1.0, 0.1), 0.0)


def count_matvecs(monkeypatch, module, name: str) -> list:
    """Wrap module's inner solve name so that each matvec it makes is logged
    in the returned list."""
    calls = []
    original = getattr(module, name)

    def counting(matvec, *args):
        def logged(x):
            calls.append(1)
            return matvec(x)
        return original(logged, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_fig5_inner_solves_take_fewer_matvecs(monkeypatch):
    # fig5 at n=64, seed 42; with every inner solve at the fixed relative
    # residual 1e-2, TV's CG took 420 matvecs and the filter's GMRES 134
    clean = sample_f2d(64)
    noisy = add_noise(clean, NoiseSpec(seed=42, delta_rel=DELTA_REL_2D))
    delta = float(np.linalg.norm(noisy.values - clean.values))
    cg = count_matvecs(monkeypatch, tv_baseline, "_pcg")
    gmres = count_matvecs(monkeypatch, nl_filter, "_gmres")
    _, tv_trace = tv_denoise_2d(noisy, TV_2D)
    _, nlap_trace = denoise_2d(noisy, replace(NLAP_2D, target_delta=delta))
    assert tv_trace.converged and nlap_trace.converged
    assert len(cg) <= 420 // 2
    assert len(gmres) <= 134
