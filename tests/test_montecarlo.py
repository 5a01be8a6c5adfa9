import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from larchpmle import (
    LossSpec,
    MAD_SCALE,
    SimConfig,
    StudyConfig,
    Theta,
    acf,
    case_study,
    estimate,
    normal_plot_data,
    run_study,
    simulate,
    summarize,
)
from larchpmle.errors import DomainError, ValidationError, WindowError

from conftest import CASE1, scipy_oracle


class TestSummarize:
    def test_constant_sequence(self):
        s = summarize([2.0] * 10, n=100, beta=0.8, trim_k=2)
        assert s.all.s == 0.0 and s.all.s_tilde == 0.0
        assert math.isnan(s.all.skewness)
        assert math.isnan(s.all.q_skewness)

    def test_symmetric_sequence(self):
        s = summarize([-1.0, -0.5, 0.0, 0.5, 1.0], n=100, beta=1.0, trim_k=0)
        assert s.all.mean == 0.0 and s.all.median == 0.0
        assert s.all.q_skewness == 0.0
        assert s.all.skewness == pytest.approx(0.0, abs=1e-15)

    def test_scaled_columns(self):
        v = [0.0, 1.0, 2.0, 5.0]
        s = summarize(v, n=81, beta=0.5, trim_k=0)
        assert s.all.s_scaled == pytest.approx(3.0 * s.all.s)
        assert s.all.s_tilde_scaled == pytest.approx(3.0 * s.all.s_tilde)

    def test_mad_scale_constant(self):
        # Phi^-1(3/4) to full double precision
        assert MAD_SCALE == pytest.approx(0.674489750196082, abs=1e-14)

    def test_normal_sample_mad_consistency(self):
        rng = np.random.default_rng(77)
        v = rng.standard_normal(20_000)
        s = summarize(v, n=4, beta=1.0, trim_k=0)
        assert s.all.s_tilde / s.all.s == pytest.approx(1.0, abs=0.03)

    def test_quantile_convention_pinned(self):
        # linear interpolation at positions 1 + (N-1)p
        s = summarize([0.0, 1.0, 2.0, 4.0], n=100, beta=1.0, trim_k=0)
        assert s.all.q_skewness == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_trim_drops_smallest(self):
        v = [-50.0, 0.9, 1.0, 1.1, 1.2, -40.0]
        s = summarize(v, n=100, beta=1.0, trim_k=2)
        assert s.trimmed.count == 4
        assert s.trimmed.mean == pytest.approx(np.mean([0.9, 1.0, 1.1, 1.2]))
        assert s.trimmed.s <= s.all.s

    def test_validation(self):
        with pytest.raises(DomainError):
            summarize([1.0, 2.0, 3.0], n=10, beta=0.5, trim_k=0)
        with pytest.raises(DomainError):
            summarize([1.0, 2.0, 3.0, 4.0], n=10, beta=0.5, trim_k=4)


class TestNormalPlot:
    def test_two_points(self):
        pairs = normal_plot_data([3.0, 1.0])
        assert pairs[:, 0] == pytest.approx([-MAD_SCALE, MAD_SCALE])
        assert pairs[:, 1] == pytest.approx([1.0, 3.0])

    def test_values_sorted(self):
        rng = np.random.default_rng(5)
        pairs = normal_plot_data(rng.standard_normal(101))
        assert np.all(np.diff(pairs[:, 1]) >= 0.0)

    def test_normal_slope_matches_sd(self):
        rng = np.random.default_rng(6)
        v = 2.5 * rng.standard_normal(20_000)
        pairs = normal_plot_data(v)
        slope = np.polyfit(pairs[:, 0], pairs[:, 1], 1)[0]
        assert slope == pytest.approx(v.std(ddof=1), rel=0.02)

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_quantiles_match_scipy(self, n):
        ndtri = scipy_oracle("scipy.special").ndtri
        got = normal_plot_data(np.arange(n, dtype=float))[:, 0]
        want = ndtri((np.arange(1, n + 1) - 0.5) / n)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_too_few(self):
        with pytest.raises(DomainError):
            normal_plot_data([1.0])


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(1)
        assert acf(rng.standard_normal(500), 3)[0] == 1.0

    def test_white_noise_within_bands(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(30_000)
        rho = acf(w, 20)
        assert np.all(np.abs(rho[1:]) < 3.0 / math.sqrt(len(w)))

    def test_zero_variance_flag(self):
        rho = acf(np.ones(50), 5)
        assert np.all(np.isnan(rho))

    def test_max_lag_bounds(self):
        with pytest.raises(DomainError):
            acf(np.arange(10.0), 10)

    def test_squares_option(self):
        x = np.array([1.0, -1.0, 2.0, -2.0, 1.5, -0.5, 0.25, -1.25])
        assert acf(x, 2, on_squares=True) == pytest.approx(
            acf(x ** 2, 2), nan_ok=True)


@pytest.fixture(scope="module")
def tiny_cfg():
    return case_study(1, n_values=(400,), replicates=6, base_seed=9, trim=1)


class TestRunStudy:

    def test_deterministic(self, tiny_cfg):
        r1 = run_study(tiny_cfg)
        r2 = run_study(tiny_cfg)
        assert r1.rows == r2.rows
        assert r1.summaries == r2.summaries

    def test_scheduling_independent(self, tiny_cfg):
        # two chunks of replicates, so two worker processes run
        cfg = replace(tiny_cfg, replicates=9)
        r1 = run_study(cfg, workers=1)
        r2 = run_study(cfg, workers=2)
        assert r1.rows == r2.rows

    def test_no_more_workers_than_chunks(self, tiny_cfg, monkeypatch):
        # a pool forks all its workers at its first task: a recording
        # stand-in, which runs the tasks here, shows how many it was asked
        # for, and no process starts
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        one_chunk = replace(tiny_cfg, replicates=4)
        assert run_study(one_chunk, workers=64).rows == run_study(
            one_chunk).rows
        assert asked == []
        three_chunks = replace(tiny_cfg, n_values=(300,), replicates=17)
        assert run_study(three_chunks, workers=64).rows == run_study(
            three_chunks).rows
        assert asked == [3]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, tiny_cfg, workers):
        with pytest.raises(DomainError, match="workers"):
            run_study(tiny_cfg, workers=workers)

    def test_rows_record_evaluations_and_times(self, tiny_cfg):
        rows = run_study(tiny_cfg).rows
        row = rows[0]
        cfg = tiny_cfg
        sim = SimConfig(n=row.n, burn_in=cfg.burn_in, J=cfg.spec.J,
                        seed=row.seed)
        x = simulate(cfg.spec, cfg.theta0, sim).x_obs
        res = estimate(LossSpec("trunc", cfg.epsilon, beta=cfg.beta),
                       cfg.spec, x, fix={"c": cfg.theta0.c, "a": cfg.theta0.a})
        assert row.evals == res.evaluations
        assert all(r.evals > 0 and r.sim_s > 0.0 and r.fit_s > 0.0
                   for r in rows)

    def test_rows_in_replicate_order(self, tiny_cfg):
        rows = run_study(tiny_cfg).rows
        assert [r.replicate for r in rows] == list(range(6))
        assert all(r.n == 400 for r in rows)
        # sample sizes given out of order still come out in (n, replicate)
        # order
        rows = run_study(replace(tiny_cfg, n_values=(400, 300),
                                 replicates=2)).rows
        assert [(r.n, r.replicate) for r in rows] == [
            (300, 0), (300, 1), (400, 0), (400, 1)]

    def test_profile_freezes_c_and_a(self, tiny_cfg):
        rows = run_study(tiny_cfg).rows
        assert all(r.c_hat == tiny_cfg.theta0.c for r in rows)
        assert all(r.a_hat == tiny_cfg.theta0.a for r in rows)

    def test_joint_mode_moves_all_parameters(self):
        cfg = case_study(1, n_values=(400,), replicates=3, base_seed=9,
                         trim=1, estimate_params="dca")
        rows = run_study(cfg).rows
        assert any(r.c_hat != cfg.theta0.c for r in rows)

    def test_zero_scale_study_recovers_intercept(self, spec):
        # with c frozen at zero the intercept estimate is sqrt(mean x^2)
        cfg = StudyConfig(theta0=Theta(0.0, 0.0, 1.3),
                          epsilon=0.01, beta=0.9, n_values=(600,),
                          replicates=1, base_seed=3, trim=0,
                          estimate_params="dca", burn_in=200, J=100)
        row = run_study(cfg).rows[0]
        assert row.a_hat == pytest.approx(1.3, abs=0.1)

    def test_case_presets(self):
        c1 = case_study(1, replicates=20, trim=2)
        c2 = case_study(2, replicates=20, trim=2)
        assert (c1.theta0.d, c1.beta) == (0.1, 0.799)
        assert (c2.theta0.d, c2.beta) == (0.2, 0.599)
        with pytest.raises(DomainError):
            case_study(3)

    def test_overrides_replace_the_preset(self):
        # any field may be overridden, the preset's own ones too
        assert (case_study(2, beta=0.5, epsilon=0.1)
                == replace(case_study(2), beta=0.5, epsilon=0.1))
        theta0 = Theta(0.3, 0.1, 1.0)
        assert case_study(1, theta0=theta0) == replace(case_study(1),
                                                       theta0=theta0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            case_study(1, replicates=5, trim=5)
        with pytest.raises(DomainError):
            case_study(1, n_values=())
        with pytest.raises(DomainError, match="repeats"):
            case_study(1, n_values=(300, 500, 300))
        # every input is checked before any path is drawn
        cfg = case_study(1)
        for bad, error, match in [
                (dict(epsilon=0.0), DomainError, "epsilon"),
                (dict(epsilon=math.inf), DomainError, "epsilon"),
                (dict(beta=1.5), DomainError, "beta"),
                (dict(J=0), DomainError, "J"),
                (dict(burn_in=-1), DomainError, "burn_in"),
                (dict(theta0=Theta(0.6, 0.2, 1.0)), ValidationError, "outside"),
                # floor(300^0.1) = 1 and floor(100^0.49) = 9
                (dict(n_values=(300,), beta=0.1), WindowError, "degenerate"),
                (dict(n_values=(1000, 100), beta=0.49), WindowError,
                 "n = 100 holds fewer than 10")]:
            with pytest.raises(error, match=match):
                replace(cfg, **bad)
        replace(cfg, n_values=(100,), beta=0.5)        # exactly 10 points
