import math
import warnings

import numpy as np
import pytest

from larchpmle import (
    SimConfig,
    Theta,
    acf,
    fit_decay,
    predicted_rate,
    score_gap,
    simulate,
    tail_variance,
)
from larchpmle import diagnostics
from larchpmle.errors import DomainError, InsufficientDataError

from conftest import CASE1, CASE2


class TestFitDecay:
    def test_exact_power_law(self):
        k = np.arange(3, 150, dtype=float)
        fit = fit_decay(np.stack([k, k ** -0.8], axis=1), 3, 150)
        assert fit.slope == pytest.approx(-0.8, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_scale_equivariance(self):
        k = np.arange(2, 60, dtype=float)
        v = k ** -1.3
        f1 = fit_decay(np.stack([k, v], axis=1), 2, 60)
        f2 = fit_decay(np.stack([k, 7.0 * v], axis=1), 2, 60)
        assert f2.slope == pytest.approx(f1.slope, abs=1e-12)
        assert f2.intercept - f1.intercept == pytest.approx(np.log(7.0),
                                                            rel=1e-12)

    def test_nonpositive_values_excluded(self):
        pairs = [(1.0, 1.0), (2.0, -1.0), (3.0, 0.5), (4.0, 0.3),
                 (5.0, 0.0), (6.0, 0.2), (7.0, 0.15)]
        fit = fit_decay(pairs, 1, 7)
        assert fit.n_points == 5

    def test_nonfinite_pairs_excluded(self):
        # an inf value and an inf k drop out like nonpositive ones, with
        # no warning from the fit
        k = np.arange(1.0, 8.0)
        pairs = np.stack([k, k ** -0.8], axis=1)
        bad = np.vstack([pairs, [(8.0, math.inf), (math.inf, 0.1),
                                 (9.0, math.nan)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decay(bad, 1, math.inf)
        assert fit.n_points == 7
        assert fit.k_range == (1.0, 7.0)
        assert fit == fit_decay(pairs, 1, math.inf)

    def test_insufficient_data(self):
        pairs = [(k, 1.0 / k) for k in range(1, 5)]
        with pytest.raises(InsufficientDataError):
            fit_decay(pairs, 1, 10)
        with pytest.raises(InsufficientDataError):
            fit_decay([(k, 1.0) for k in range(1, 30)], 50, 60)

    def test_tail_variance_slope_case2(self, spec):
        ts = np.unique(np.round(np.logspace(2, 4, 25)).astype(int))
        pairs = [(t, tail_variance(spec, CASE2, int(t))) for t in ts]
        fit = fit_decay(pairs, 100, 10_000)
        assert fit.slope == pytest.approx(2 * CASE2.d - 1, abs=0.02)

    def test_squared_acf_slope_case2(self, spec):
        # statistical check of the squared-process correlation decay
        s = simulate(spec, CASE2, SimConfig(n=100_000, burn_in=10_000,
                                            J=2000, seed=31))
        rho = acf(s.x_obs, 100, on_squares=True)
        pairs = [(k, rho[k]) for k in range(5, 101)]
        fit = fit_decay(pairs, 5, 100)
        assert fit.slope == pytest.approx(2 * CASE2.d - 1, abs=0.2)


class TestScoreGap:
    def test_zero_scale_gap_is_exactly_zero(self, spec):
        for n in (500, 1200):
            g = score_gap(spec, Theta(0.1, 0.0, 1.0), 0.01, n, 0.799,
                          replicates=3, burn_in=2500)
            assert g.empirical == 0.0
            assert all(v == 0.0 for v in g.per_replicate)

    @pytest.mark.parametrize("beta", [0.799, 1.0])
    def test_no_burn_in_gap_is_exactly_zero(self, spec, beta):
        # without a burn-in the whole history is the observed past: every
        # window point of "full" reads its t - 1 observations after zeros,
        # as "trunc" does, so both scores agree bit for bit
        g = score_gap(spec, CASE1, 0.01, 500, beta, replicates=2,
                      burn_in=0)
        assert g.per_replicate == (0.0, 0.0)

    def test_short_memory_gap_shrinks(self, spec):
        th = Theta(0.0, 0.2, 1.0)
        g1 = score_gap(spec, th, 0.01, 1000, 0.799, replicates=80,
                       base_seed=3)
        g4 = score_gap(spec, th, 0.01, 4000, 0.799, replicates=80,
                       base_seed=3)
        assert g4.empirical < g1.empirical
        assert predicted_rate(0.799, th.d).score_gap_order == pytest.approx(
            -0.1005)

    def test_clt_regime_gap_shrinks(self, spec):
        # beta below the long-memory border: the gap is o(1)
        th = Theta(0.1, 0.2, 1.0)
        g1 = score_gap(spec, th, 0.01, 1000, 0.599, replicates=80,
                       base_seed=3)
        g8 = score_gap(spec, th, 0.01, 8000, 0.599, replicates=80,
                       base_seed=3)
        assert g8.empirical < g1.empirical
        assert predicted_rate(0.599, th.d).regime == "clt"

    def test_prediction_attached(self, spec):
        g = score_gap(spec, CASE2, 0.01, 500, 0.599, replicates=2,
                      burn_in=2500)
        assert len(g.per_replicate) == 2

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_no_replicates_rejected_before_any_work(self, spec, replicates,
                                                    monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a path was simulated before the check")

        monkeypatch.setattr(diagnostics, "simulate", no_work)
        with pytest.raises(DomainError, match="replicates"):
            score_gap(spec, CASE2, 0.01, 500, 0.599, replicates,
                      burn_in=2000)
