import math
import tracemalloc

import numpy as np
import pytest

from larchpmle import (
    CoeffSpec,
    NoiseMoments,
    SimConfig,
    Theta,
    gaussian_moments,
    predicted_rate,
    sandwich,
    simulate,
)
from larchpmle import asymptotics
from larchpmle.asymptotics import sigma_and_gradient
from larchpmle.errors import DomainError, MissingMomentError, SingularityError
from larchpmle.simulate import _checked

from conftest import CASE1, CASE2, _simulate_loop


@pytest.fixture(scope="module")
def nm():
    return gaussian_moments(8)


class TestSigmaGradient:
    def test_matches_generated_sigma(self, spec, nm):
        s = simulate(spec, CASE1, SimConfig(n=400, burn_in=3000, J=2000,
                                            seed=3))
        sig, S = sigma_and_gradient(spec, CASE1, s)
        assert sig == pytest.approx(s.sigma_obs, abs=1e-10)
        assert np.all(S[:, 2] == 1.0)

    def test_gradient_finite_differences(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=200, burn_in=3000, J=2000,
                                            seed=4))
        h = 1e-6
        sig, S = sigma_and_gradient(spec, CASE1, s)
        for i, e in enumerate(np.eye(3)[:2]):
            up = Theta(*(CASE1.as_array() + h * e))
            dn = Theta(*(CASE1.as_array() - h * e))
            fd = (sigma_and_gradient(spec, up, s)[0]
                  - sigma_and_gradient(spec, dn, s)[0]) / (2 * h)
            assert S[:, i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("burn_in", [0, 1, 1999])
    def test_short_burn_in_reads_empty_past(self, spec, burn_in):
        # the lags before the path's first step read zero, as the
        # simulator's did, so sigma is the simulated one at any burn-in
        s = _simulate_loop(spec, CASE1, SimConfig(n=100, burn_in=burn_in,
                                                  J=2000, seed=5))
        sig, _ = sigma_and_gradient(spec, CASE1, s)
        np.testing.assert_allclose(sig, s.sigma_obs, rtol=1e-12, atol=0.0)


class TestSandwich:
    def test_short_path_fails_before_simulating(self, spec, nm,
                                                monkeypatch):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulated a path too short for lag sums")

        monkeypatch.setattr(asymptotics, "_pieces", no_simulate)
        for n in (1, 0):
            with pytest.raises(DomainError):
                sandwich(spec, CASE1, 0.01, nm, path_length=n, burn_in=2100)

    @pytest.mark.parametrize("family, J, n, eps, burn_in", [
        pytest.param("power", 2000, 40_001, 0.01, 2000, id="power"),
        pytest.param("farima", 2000, 40_001, 0.01, 2000, id="farima"),
        pytest.param("farima", 2000, 40_001, 1e-300, 2000,
                     id="farima-eps1e-300"),
        pytest.param("power", 200, 200_001, 0.01, 2000, id="power-J200"),
        pytest.param("power", 1000, 131_073, 0.01, 2000, id="power-J1000"),
        pytest.param("power", 2000, 40_001, 0.01, 0, id="power-burn0"),
        pytest.param("power", 2000, 40_001, 0.01, 1999,
                     id="power-burn1999")])
    def test_blocks_match_whole_path_formula(self, family, J, n, eps,
                                             burn_in, nm):
        # sigma and its gradient are formed piece by piece and summed per
        # block; the sums agree with one whole-path sigma_and_gradient
        # sliced at the same bounds (40001 points: blocks of 1250 and 1251,
        # one piece each; 200001 points at J = 200: blocks of 6250 and
        # 6251, four pieces each; 131073 points at J = 1000: blocks of 4096
        # and one of 4097, two pieces each, one of them 2049 points long).
        # At eps = 1e-300 the weight of H is 4 / sigma^2: H is the
        # unregularized Hessian.  A burn-in shorter than J reads the empty
        # past before the path's first step in both
        spec = CoeffSpec(family, J)
        res = sandwich(spec, CASE1, eps, nm, path_length=n, burn_in=burn_in,
                       seed=4)
        s = simulate(spec, CASE1, SimConfig(n=n, burn_in=burn_in, seed=4))
        sig, S = sigma_and_gradient(spec, CASE1, s)
        s2e = sig ** 2 + eps
        wG = (nm.moment(4) - 1.0) * 4.0 * sig ** 6 / s2e ** 4
        wH = 4.0 * sig ** 2 / s2e ** 2
        bounds = np.linspace(0, n, 33).astype(int)
        assert len(set(np.diff(bounds))) == 2
        for w, total, se in ((wG, res.G, res.se_G), (wH, res.H, res.se_H)):
            sums = np.array([(S[lo:hi].T * w[lo:hi]) @ S[lo:hi]
                             for lo, hi in zip(bounds[:-1], bounds[1:])])
            means = sums / np.diff(bounds)[:, None, None]
            np.testing.assert_allclose(total, sums.sum(axis=0) / n,
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(
                se, means.std(axis=0, ddof=1) / math.sqrt(32),
                rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n, J, pieces", [
        (500_000, 2000, 128), (131_073, 1000, 64), (131_104, 1024, 96),
        (40, 40, 32), (5, 2000, 5)])
    def test_path_cut_once(self, n, J, pieces, monkeypatch):
        # one integer grid of cuts: every block bound is a cut, every block
        # has the same number of pieces, and a piece holds at most one
        # point more than max(2 J, 2048)
        def lengths(spec, theta0, cfg, ends):
            for lo, hi in zip(ends[:-1], ends[1:]):
                yield np.zeros((3, cfg.J + hi - lo))

        monkeypatch.setattr(asymptotics, "_pieces", lengths)
        monkeypatch.setattr(asymptotics, "sigma_and_gradient",
                            lambda spec, theta, sample: (sample.n, None))
        spec = CoeffSpec("power", J)
        cfg = _checked(spec, CASE1, SimConfig(n=n, burn_in=J, seed=0))
        blocks = [(i, m) for i, m, _ in asymptotics._blocks(spec, CASE1, cfg)]
        bounds = asymptotics._bounds(n)
        assert len(blocks) == pieces
        assert [i for i, _ in blocks] == sorted(i for i, _ in blocks)
        sizes = np.bincount([i for i, _ in blocks],
                            weights=[m for _, m in blocks])
        np.testing.assert_array_equal(sizes, np.diff(bounds))
        assert max(m for _, m in blocks) <= max(2 * J, 2048) + 1

    def test_memory_beyond_sample_is_block_sized(self, spec, nm):
        # no path-length array exists: the path is streamed in pieces and
        # summed block by block, so the traced peak of the sandwich is at
        # most half that of simulating the path alone (6.2 MB, of which
        # the whole-path x, sigma and eps take 4.9 MB)
        n, burn_in = 200_000, 10_000
        tracemalloc.start()
        try:
            simulate(spec, CASE1, SimConfig(n=n, burn_in=burn_in, seed=1))
            sim_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sandwich(spec, CASE1, 0.01, nm, path_length=n, burn_in=burn_in,
                     seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sim_peak / 2

    def test_degenerate_scale_flags_singularity(self, spec, nm):
        with pytest.raises(SingularityError):
            sandwich(spec, Theta(0.1, 0.0, 1.0), 0.01, nm,
                     path_length=30_000, burn_in=3000)

    def test_requires_fourth_moment(self, spec):
        nm2 = NoiseMoments(mu={1: 0.0, 2: 1.0}, mu_abs={2: 1.0})
        with pytest.raises(MissingMomentError):
            sandwich(spec, CASE1, 0.01, nm2, path_length=5000, burn_in=2100)

    def test_epsilon_positive(self, spec, nm):
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                sandwich(spec, CASE1, eps, nm, path_length=5000)

    def test_sd_holds_for_any_finite_epsilon(self, spec, nm):
        # G and H are summed times max(1, eps)^4 and ^2, so sd and
        # sd_joint hold where G itself underflows (eps above about 1e77),
        # and no weight overflows (RuntimeWarnings are errors here)
        ref = sandwich(spec, CASE1, 1e40, nm, path_length=4000,
                       burn_in=2100)
        for eps in (1e80, 1e100, 1e160, 1e300):
            res = sandwich(spec, CASE1, eps, nm, path_length=4000,
                           burn_in=2100)
            for got, want in ((res.sd, ref.sd),
                              (res.sd_joint, ref.sd_joint)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # G and H keep their own scale: eps^4 G and eps^2 H settle as eps
        # grows, errors included
        res = sandwich(spec, CASE1, 1e60, nm, path_length=4000,
                       burn_in=2100)
        for name, p in (("G", 4), ("se_G", 4), ("H", 2), ("se_H", 2)):
            np.testing.assert_allclose(getattr(res, name) * 1e60 ** p,
                                       getattr(ref, name) * 1e40 ** p,
                                       rtol=1e-12, atol=0.0)

    def test_kurtosis_scaling_of_G(self, spec, nm):
        # G carries the (E eps^4 - 1) factor; H does not
        nm_lighter = NoiseMoments(mu={1: 0.0, 2: 1.0, 4: 2.0},
                                  mu_abs={2: 1.0, 4: 2.0})
        r3 = sandwich(spec, CASE1, 0.01, nm, path_length=20_000,
                      burn_in=2100, seed=9)
        r2 = sandwich(spec, CASE1, 0.01, nm_lighter, path_length=20_000,
                      burn_in=2100, seed=9)
        assert r3.G == pytest.approx(2.0 * r2.G, rel=1e-12)
        assert r3.H == pytest.approx(r2.H, rel=1e-12)

    def test_matrices_positive_definite_both_cases(self, spec, nm):
        for th in (CASE1, CASE2):
            r = sandwich(spec, th, 0.01, nm, path_length=30_000,
                         burn_in=2100, seed=2)
            np.linalg.cholesky(r.G)
            np.linalg.cholesky(r.H)
            assert np.abs(r.cov - r.cov.T).max() < 1e-12
            assert np.all(r.sd > 0) and np.all(r.sd_joint > 0)

    def test_stable_under_path_doubling(self, spec, nm):
        r1 = sandwich(spec, CASE1, 0.01, nm, path_length=60_000,
                      burn_in=2100, seed=5)
        r2 = sandwich(spec, CASE1, 0.01, nm, path_length=120_000,
                      burn_in=2100, seed=6)
        assert np.all(np.abs(r1.G - r2.G) <= 2 * (r1.se_G + r2.se_G))
        assert np.all(np.abs(r1.H - r2.H) <= 2 * (r1.se_H + r2.se_H))

    def test_sd_continuous_in_epsilon(self, spec, nm):
        r1 = sandwich(spec, CASE1, 0.01, nm, path_length=40_000,
                      burn_in=2100, seed=7)
        r2 = sandwich(spec, CASE1, 0.0101, nm, path_length=40_000,
                      burn_in=2100, seed=7)
        assert np.abs(r1.sd - r2.sd).max() < 0.01 * np.abs(r1.sd).max()

    def test_standard_errors_from_blocks_covering_path(self, spec, nm):
        # 32 blocks of near equal length cover the path, so the last
        # n mod 32 points enter the standard errors too
        se_G = {}
        for n in (40, 63):
            res = sandwich(spec, CASE1, 0.01, nm, path_length=n,
                           burn_in=2000, seed=1)
            s = simulate(spec, CASE1, SimConfig(n=n, burn_in=2000, seed=1))
            sig, S = sigma_and_gradient(spec, CASE1, s)
            s2e = sig ** 2 + 0.01
            wG = (nm.moment(4) - 1.0) * 4.0 * sig ** 6 / s2e ** 4
            wH = 4.0 * sig ** 2 / s2e ** 2
            bounds = np.linspace(0, n, 33).astype(int)
            for w, got in ((wG, res.se_G), (wH, res.se_H)):
                means = [np.einsum("i,ij,ik->jk", w[lo:hi], S[lo:hi],
                                   S[lo:hi]) / (hi - lo)
                         for lo, hi in zip(bounds[:-1], bounds[1:])]
                want = np.std(means, axis=0, ddof=1) / math.sqrt(32)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            se_G[n] = res.se_G
        assert not np.any(np.isclose(se_G[40], se_G[63], rtol=1e-6))

    def test_empirical_score_outer_product_agrees(self, spec, nm):
        # the closed form for G equals the average of realized score
        # outer products on the same path, up to Monte-Carlo error
        s = simulate(spec, CASE1, SimConfig(n=100_000, burn_in=2100, J=2000,
                                            seed=11))
        sig, S = sigma_and_gradient(spec, CASE1, s)
        eps = 0.01
        s2e = sig ** 2 + eps
        x = s.x_obs
        r = 1.0 - (x * x + eps) / s2e
        sc = (r * 2.0 * sig / s2e)[:, None] * S
        G_emp = sc.T @ sc / len(x)
        res = sandwich(spec, CASE1, eps, nm, path_length=100_000,
                       burn_in=2100, seed=11)
        assert np.abs(res.G - G_emp).max() <= 0.10 * np.abs(res.G).max()


# (family, J, theta, path length, burn-in): at and around the path lengths
# where the blocks are single points, with lags reaching back across many
# blocks, at c = 0, and with blocks of one or two points after a burn-in
# of many unyielded pieces
BLOCK_PATHS = ([("power", 2000, CASE1, n, 2000)
                for n in (2, 3, 20, 31, 32, 33, 40, 63, 40_001, 200_000)]
               + [("power", 2000, CASE2, 40_001, 2000),
                  ("farima", 2000, Theta(0.2, 0.3, 1.0), 40_001, 2000),
                  ("power", 2000, Theta(0.1, 0.0, 1.3), 40_001, 2000),
                  ("power", 20_000, CASE1, 40_001, 20_000),
                  ("power", 40, CASE1, 40_001, 40),
                  ("power", 40, CASE1, 40, 200_000)])


class TestBlocks:
    @pytest.mark.parametrize("family, J, theta, n, burn_in", BLOCK_PATHS)
    def test_pieces_match_whole_path(self, family, J, theta, n, burn_in):
        # the pieces, put end to end, are one whole-path
        # sigma_and_gradient, and each point comes with its block of
        # B = max(2, min(32, n)) near-equal blocks
        spec = CoeffSpec(family, J)
        cfg = _checked(spec, theta, SimConfig(n=n, burn_in=burn_in, seed=4))
        blocks, sig, S = zip(*asymptotics._blocks(spec, theta, cfg))
        s = simulate(spec, theta, SimConfig(n=n, burn_in=burn_in, seed=4))
        want_sig, want_S = sigma_and_gradient(spec, theta, s)
        np.testing.assert_allclose(np.concatenate(sig), want_sig,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(np.concatenate(S), want_S, rtol=0.0,
                                   atol=1e-13 * np.abs(want_S).max())
        B = max(2, min(32, n))
        bounds = [i * n // B for i in range(B + 1)]
        want_block = np.searchsorted(bounds, np.arange(n), side="right") - 1
        np.testing.assert_array_equal(
            np.repeat(blocks, [len(x) for x in sig]), want_block)


def test_traced_peak_does_not_grow_with_path(spec):
    # a block is summed over pieces of at most max(2 J, 2048) points, so
    # the peak is set by J: blocks of 1562 points are one piece each at
    # 50k points, blocks of 12500 points four pieces each at 400k
    peaks = []
    for n in (50_000, 400_000):
        tracemalloc.start()
        try:
            sandwich(spec, CASE1, 0.01, gaussian_moments(4), path_length=n,
                     burn_in=10_000, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


class TestPredictedRate:
    def test_border_rate(self):
        r = predicted_rate(0.6, 0.2)
        assert r.regime == "border"
        assert r.rate_exponent == pytest.approx(-0.3)

    def test_short_memory_edge(self):
        r = predicted_rate(1.0, 0.0)
        assert r.score_gap_order == pytest.approx(0.0)
        assert r.rate_exponent == pytest.approx(-0.5)
        assert r.regime == "border"

    def test_clt_regime_case2_like(self):
        r = predicted_rate(0.599, 0.2)
        assert r.score_gap_order == pytest.approx(-0.0005, abs=1e-12)
        assert r.regime == "clt"
        assert r.rate_exponent == pytest.approx(-0.2995)

    def test_open_regime(self):
        r = predicted_rate(0.9, 0.2)
        assert r.regime == "open"
        assert math.isnan(r.rate_exponent)

    def test_validation(self):
        with pytest.raises(DomainError):
            predicted_rate(0.0, 0.1)
        with pytest.raises(DomainError):
            predicted_rate(0.5, 0.6)
