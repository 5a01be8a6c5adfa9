import subprocess
import sys
from importlib import import_module

import numpy as np
import pytest

from larchpmle import (
    CoeffSpec,
    SimConfig,
    Theta,
    acf,
    derive_seed,
    simulate,
)
from larchpmle.coeffs import coeff_weights
from larchpmle.errors import DomainError, NumericError, ValidationError

from conftest import CASE1, CASE2, _simulate_loop
from oracles import volterra_sigma

# the package exports the function simulate under the module's name
sim_mod = import_module("larchpmle.simulate")
# steps whose in-block inverses the simulator builds together
CHUNK_STEPS = sim_mod._CHUNK * sim_mod._BLOCK


class TestSimulate:
    def test_zero_scale_degenerates(self, spec):
        th = Theta(0.2, 0.0, 1.7)
        s = simulate(spec, th, SimConfig(n=200, burn_in=50, seed=1))
        assert np.all(s.sigma == 1.7)
        assert s.x == pytest.approx(1.7 * s.eps)

    def test_x_is_eps_times_sigma(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=300, burn_in=100, seed=2))
        assert np.all(s.x == s.eps * s.sigma)

    def test_deterministic(self, spec):
        cfg = SimConfig(n=250, burn_in=100, seed=99)
        s1 = simulate(spec, CASE1, cfg)
        s2 = simulate(spec, CASE1, cfg)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.eps, s2.eps)

    def test_records_truncation_order(self, spec):
        # an unset J falls back to the spec's, and the sample records it
        s = simulate(spec, CASE1, SimConfig(n=20, burn_in=0, seed=1))
        assert s.config.J == spec.J
        cfg = SimConfig(n=20, burn_in=0, J=7, seed=1)
        assert simulate(spec, CASE1, cfg).config is cfg

    def test_seed_changes_path(self, spec):
        s1 = simulate(spec, CASE1, SimConfig(n=100, burn_in=0, seed=1))
        s2 = simulate(spec, CASE1, SimConfig(n=100, burn_in=0, seed=2))
        assert not np.array_equal(s1.x, s2.x)

    def test_recursion_matches_definition(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=40, burn_in=0, J=100, seed=5))
        from larchpmle.coeffs import coeff_weights
        b = coeff_weights(spec, CASE1, 100)
        for t in range(40):
            k = min(t, 100)
            expect = CASE1.a + sum(b[j - 1] * s.x[t - j]
                                   for j in range(1, k + 1))
            assert s.sigma[t] == pytest.approx(expect, rel=1e-12)

    def test_out_of_space_rejected(self, spec, space):
        with pytest.raises(ValidationError):
            simulate(spec, Theta(0.1, 0.8, 1.0), SimConfig(n=10, seed=0),
                     space=space)

    def test_sample_mean_near_zero(self, spec):
        # the process is a martingale difference: uncorrelated, mean zero
        s = simulate(spec, CASE1, SimConfig(n=100_000, burn_in=10_000, seed=8))
        x = s.x_obs
        se = x.std(ddof=1) / np.sqrt(len(x))
        assert abs(x.mean()) < 4 * se

    def test_burn_in_insensitivity(self, spec):
        m = []
        for burn in (10_000, 20_000):
            vals = [
                np.mean(simulate(spec, CASE2,
                                 SimConfig(n=20_000, burn_in=burn,
                                           seed=derive_seed(17, r))
                                 ).x_obs ** 2)
                for r in range(8)
            ]
            m.append((np.mean(vals), np.std(vals, ddof=1) / np.sqrt(8)))
        (m1, se1), (m2, se2) = m
        assert abs(m1 - m2) < 3 * np.hypot(se1, se2)

    def test_table_noise(self, spec):
        rng = np.random.default_rng(0)
        table = rng.standard_normal(4000)
        table = (table - table.mean()) / table.std()
        cfg = SimConfig(n=500, burn_in=0, seed=4, noise=table)
        s = simulate(spec, CASE1, cfg)
        assert set(np.round(s.eps, 12)) <= set(np.round(table, 12))

    def test_bad_noise_table(self):
        with pytest.raises(ValidationError):
            SimConfig(n=10, seed=0, noise=np.array([5.0, 6.0, 7.0]))
        with pytest.raises(DomainError):
            SimConfig(n=10, seed=0, noise="uniform")

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(n=10, seed=-1)
        for base, stream in ((-1, 0), (0, -1)):
            with pytest.raises(DomainError):
                derive_seed(base, stream)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_first_nonfinite_step(self, spec):
        cfg = SimConfig(n=50, burn_in=0, J=2000, seed=1)
        # SimConfig refuses this table (its variance overflows), so it is
        # planted past validation to reach the simulator's own check;
        # x_1 = +-1e200 is finite and x_2 = eps_2 (1 + b_1 x_1) overflows
        object.__setattr__(cfg, "noise", np.array([1e200, -1e200]))
        with pytest.raises(NumericError, match="t = 2 of 50"):
            simulate(spec, CASE1, cfg)


def _unit_table(size, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(size)
    return (table - table.mean()) / table.std()


class TestBlockedKernel:
    """The blocked simulator against the step-by-step recursion."""

    @pytest.mark.parametrize("total", [
        1, 31, 32, 33, 20_000, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1,
        3 * CHUNK_STEPS + 17])
    @pytest.mark.parametrize("J", [1, 5, 31, 32, 33, 2000])
    @pytest.mark.parametrize("family", ["power", "farima"])
    def test_matches_loop(self, family, J, total):
        spec = CoeffSpec(family, 2000)
        noises = ("gaussian", _unit_table(1000, J))
        burn_ins = (0, total // 2) if total > 1 else (0,)
        for burn_in in burn_ins:
            for noise in noises:
                cfg = SimConfig(n=total - burn_in, burn_in=burn_in, J=J,
                                seed=derive_seed(total, J), noise=noise)
                s = simulate(spec, CASE2, cfg)
                ref = _simulate_loop(spec, CASE2, cfg)
                assert np.array_equal(s.eps, ref.eps)
                np.testing.assert_allclose(s.sigma, ref.sigma, rtol=1e-12,
                                           atol=0.0)
                np.testing.assert_allclose(s.x, ref.x, rtol=1e-12, atol=0.0)
                assert np.all(s.x == s.eps * s.sigma)
                again = simulate(spec, CASE2, cfg)
                assert np.array_equal(again.x, s.x)
                assert np.array_equal(again.sigma, s.sigma)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_late_overflow_names_step_of_loop(self, spec):
        # x grows by about b_1 1e10 per step and overflows after the first
        # block; the step named is the loop's first non-finite one
        cfg = SimConfig(n=200, burn_in=0, J=2000, seed=3)
        object.__setattr__(cfg, "noise", np.array([1e10, -1e10]))
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _simulate_loop(spec, CASE1, cfg)
        first = int(np.flatnonzero(~np.isfinite(ref.x))[0])
        assert first > 32
        with pytest.raises(NumericError, match=f"t = {first + 1} of 200"):
            simulate(spec, CASE1, cfg)

    # a block's inverse is not finite, so the pass runs on to the end on
    # non-finite values; that block is replayed step by step and the blocks
    # after it (four after the third block, none after the last) rebuilt
    # in the path's one set of 7-block work arrays and run afresh.  The
    # fault goes into the inverse's upper-left quadrant, which every chunk
    # rewrites (the upper-right one stays zero).  Nothing in the kernel
    # raises, so a non-finite block is the only failure a pass can meet.
    @pytest.mark.parametrize("block, fault, sizes", [
        (2, np.nan, [7, 7]), (2, np.inf, [7, 7]), (6, np.nan, [7])],
        ids=["third-nan", "third-inf", "last-nan"])
    def test_nonfinite_block_is_replayed(self, spec, monkeypatch, block,
                                         fault, sizes):
        cfg = SimConfig(n=150, burn_in=50, J=2000, seed=12)
        expect = simulate(spec, CASE1, cfg)
        inverses, replay = sim_mod._inverses, sim_mod._replay
        chunks, replayed = [], []

        def flaky(L, E, X, Y):
            inverses(L, E, X, Y)
            chunks.append(E.copy())
            if len(chunks) == 1:
                X[:16, block, :16] = fault

        def spy(buf, sig, eps, b_rev, a, t0, t1):
            replayed.append((t0, t1))
            return replay(buf, sig, eps, b_rev, a, t0, t1)

        monkeypatch.setattr(sim_mod, "_inverses", flaky)
        monkeypatch.setattr(sim_mod, "_replay", spy)
        got = simulate(spec, CASE1, cfg)
        assert replayed == [(32 * block, min(32 * block + 32, 200))]
        assert [len(E) for E in chunks] == sizes
        if len(chunks) > 1:
            np.testing.assert_array_equal(chunks[1].ravel()[:104],
                                          got.eps[96:])
        ref = _simulate_loop(spec, CASE1, cfg)
        np.testing.assert_allclose(got.sigma, ref.sigma, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.sigma, expect.sigma, rtol=1e-12,
                                   atol=0.0)
        assert np.all(got.x == got.eps * got.sigma)

    def test_no_scipy_linalg_import(self):
        # neither the simulator nor a fit pulls in scipy.linalg or
        # scipy.optimize (start-up time and peak memory)
        code = ("import sys, larchpmle\n"
                "spec = larchpmle.CoeffSpec('power', 2000)\n"
                "s = larchpmle.simulate(spec, larchpmle.Theta(0.1, 0.2, 1.0),\n"
                "    larchpmle.SimConfig(n=100, burn_in=100, seed=1))\n"
                "print('scipy.linalg' in sys.modules)\n"
                "larchpmle.estimate(larchpmle.LossSpec('bar', 0.01), spec,\n"
                "    s.x_obs)\n"
                "print('scipy.linalg' in sys.modules,\n"
                "      'scipy.optimize' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        assert out.stdout.split() == ["False", "False", "False"]


def _joined(spec, theta0, cfg, piece=sim_mod._PIECE):
    """The pieces of a path copied out of their reused arrays and joined:
    arrays x, sigma, eps and the length of each piece."""
    parts = [[a.copy() for a in p]
             for p in sim_mod._pieces(spec, theta0, cfg, piece)]
    return [np.concatenate(a) for a in zip(*parts)], [len(p[0]) for p in parts]


class TestPieces:
    """A path streamed in pieces against the one piece of simulate."""

    # 2 whole pieces and a short one; the largest J reaches back across
    # more than one piece
    @pytest.mark.parametrize("J", [1, 31, 2000, sim_mod._PIECE + 3000])
    @pytest.mark.parametrize("noise", ["gaussian", "table"])
    def test_pieces_equal_whole_path(self, J, noise):
        spec = CoeffSpec("power", 2000)
        noise = _unit_table(1000, J) if noise == "table" else noise
        cfg = SimConfig(n=2 * sim_mod._PIECE - 3000 + 4321, burn_in=3000,
                        J=J, seed=derive_seed(7, J), noise=noise)
        (x, sig, eps), sizes = _joined(spec, CASE1, cfg)
        assert sizes == [sim_mod._PIECE] * 2 + [4321]
        whole = simulate(spec, CASE1, cfg)
        assert np.array_equal(x, whole.x)
        assert np.array_equal(sig, whole.sigma)
        assert np.array_equal(eps, whole.eps)

    def test_nonfinite_block_in_later_piece_is_replayed(self, spec,
                                                        monkeypatch):
        # the fault hits the third block of the second piece's first chunk;
        # that block is replayed, counted from the piece's start
        cfg = SimConfig(n=sim_mod._PIECE + 1000, burn_in=0, J=2000, seed=5)
        expect = simulate(spec, CASE1, cfg)
        inverses, replay = sim_mod._inverses, sim_mod._replay
        calls, replayed = [], []
        per_piece = sim_mod._PIECE // CHUNK_STEPS

        def flaky(L, E, X, W):
            inverses(L, E, X, W)
            calls.append(len(calls))
            if len(calls) == per_piece + 1:
                X[:16, 2, :16] = np.nan

        def spy(buf, sig, eps, b_rev, a, t0, t1):
            replayed.append((t0, t1))
            return replay(buf, sig, eps, b_rev, a, t0, t1)

        monkeypatch.setattr(sim_mod, "_inverses", flaky)
        monkeypatch.setattr(sim_mod, "_replay", spy)
        (x, sig, eps), sizes = _joined(spec, CASE1, cfg)
        assert len(sizes) == 2
        assert replayed == [(64, 96)]
        np.testing.assert_allclose(sig, expect.sigma, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sig, _simulate_loop(spec, CASE1, cfg).sigma,
                                   rtol=1e-12, atol=0.0)
        assert np.all(x == eps * sig)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_later_piece_names_absolute_step(self, spec):
        # the planted table overflows the path after its first block (see
        # test_late_overflow_names_step_of_loop), so in a later piece of
        # one block each
        piece = 32
        cfg = SimConfig(n=200, burn_in=0, J=2000, seed=3)
        object.__setattr__(cfg, "noise", np.array([1e10, -1e10]))
        with pytest.raises(NumericError) as whole:
            simulate(spec, CASE1, cfg)
        step = int(str(whole.value).split("t = ")[1].split()[0])
        assert step > piece
        with pytest.raises(NumericError) as pieces:
            _joined(spec, CASE1, cfg, piece)
        assert str(pieces.value) == str(whole.value)


class TestHalfBlockInverses:
    """The in-block inverses built from half-blocks against a dense inverse
    of each block's system."""

    @pytest.mark.parametrize("J", [1, 5, 16, 17, 31, 2000])
    def test_match_dense_inverse(self, spec, J):
        B, K = sim_mod._BLOCK, sim_mod._CHUNK
        b = coeff_weights(spec, CASE2, J)
        L = np.zeros((B, B))
        for r in range(B):
            for c in range(max(0, r - J), r):
                L[r, c] = b[r - c - 1]
        # work arrays as the simulator sets them up, reused across chunks
        X = np.zeros((B, K, B))
        W = np.zeros((2, B // 2, 2 * K, B // 2))
        W[0, 0, :, 0] = 1.0
        rng = np.random.default_rng(J)
        full = rng.standard_normal((K, B))
        full[::3, ::5] = 0.0
        # a last chunk that ends inside its sixth block, padded with zeros
        last = np.zeros((K, B))
        last.flat[:5 * B + 7] = rng.standard_normal(5 * B + 7)
        last[1, :B // 2] = 0.0
        for E in (full, last):
            sim_mod._inverses(L, E, X, W)
            for k in range(K):
                ref = np.linalg.inv(np.eye(B) - L * E[k])
                # normwise: an entry formed by cancellation is off by up
                # to 3e-11 of itself against a long-double substitution,
                # whichever order the sums run in
                assert (np.linalg.norm(X[:, k] - ref)
                        <= 1e-13 * np.linalg.norm(ref))
                assert not np.triu(X[:, k], 1).any()


class TestVolterra:
    def test_t1_is_intercept(self, spec):
        assert volterra_sigma(spec, CASE1, [], 1, K_max=5) == CASE1.a

    def test_depth_one_term(self, spec):
        # only k = 1 chains: a * (1 + sum_j b_j eps_{t-j})
        from larchpmle.coeffs import coeff_weights
        rng = np.random.default_rng(3)
        eps = rng.standard_normal(6)
        b = coeff_weights(spec, CASE1, 6)
        t = 7
        expect = CASE1.a * (1.0 + sum(b[j - 1] * eps[t - 1 - j]
                                      for j in range(1, 7)))
        got = volterra_sigma(spec, CASE1, eps, t, K_max=1)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_matches_recursion_full_depth(self, spec):
        cfg = SimConfig(n=30, burn_in=0, J=64, seed=11)
        s = simulate(spec, CASE2, cfg)
        for t in range(1, 31):
            v = volterra_sigma(spec, CASE2, s.eps[: t - 1], t, K_max=t)
            assert v == pytest.approx(s.sigma[t - 1], abs=1e-10)


class TestStationarity:
    def test_acf_of_x_is_flat(self, spec):
        # the process itself is uncorrelated
        s = simulate(spec, CASE2, SimConfig(n=50_000, burn_in=10_000, seed=21))
        rho = acf(s.x_obs, 5)
        band = 3.0 / np.sqrt(len(s.x_obs))
        assert np.all(np.abs(rho[1:]) < band)

    def test_acf_of_squares_is_positive(self, spec):
        # long memory in volatility: squared-process correlations persist
        s = simulate(spec, CASE2, SimConfig(n=50_000, burn_in=10_000, seed=22))
        rho = acf(s.x_obs, 50, on_squares=True)
        assert rho[1:].mean() > 0.0

    def test_derive_seed_is_stable(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(41, 0) != derive_seed(42, 0)
