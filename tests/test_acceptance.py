"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured values.  The replication studies run at N = 200 per sample size;
the full N = 1000 study is available through the ``mc`` CLI command.
"""

import math
import time

import numpy as np
import pytest

from larchpmle import (
    CoeffSpec,
    LossSpec,
    SimConfig,
    Theta,
    case_study,
    derive_seed,
    estimate,
    fit_decay,
    gaussian_moments,
    loss,
    m_of_n,
    run_study,
    sandwich,
    simulate,
    tail_variance,
)
from larchpmle.likelihood import PathEvaluator

from conftest import CASE1, CASE2
from oracles import volterra_sigma

SPEC = CoeffSpec("power", 2000)
WORKERS = 2
# criterion 4b: the sandwich's G and H lie within this many standard errors
# of the moments of criterion 3's scores and Hessians; the largest measured
# distance is 1.95 (G's d entry), and every H entry is within 1.03
Z_4B = 3.0


def report(num, name, ok, detail):
    print(f"\ncriterion {num:>2} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def sandwich_results():
    nm = gaussian_moments(8)
    r1 = sandwich(SPEC, CASE1, 0.01, nm, path_length=500_000, seed=2)
    r2 = sandwich(SPEC, CASE2, 0.01, nm, path_length=500_000, seed=2)
    return r1, r2


@pytest.fixture(scope="module")
def truth_terms():
    """Scores (500, 3) and Hessians (500, 3, 3) of the "full" loss at the
    case-1 truth on 500 paths of 2000 points, asked for once."""
    terms = [loss(LossSpec("full", 0.01), SPEC, CASE1,
                  simulate(SPEC, CASE1,
                           SimConfig(n=2000, burn_in=10_000, J=2000,
                                     seed=derive_seed(7, r))),
                  derivatives=2)
             for r in range(500)]
    return (np.array([t.score for t in terms]),
            np.array([t.hessian for t in terms]))


@pytest.fixture(scope="module")
def study_case1():
    cfg = case_study(1, n_values=(1000, 10_000), replicates=200,
                     base_seed=42, trim=10)
    return run_study(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def study_case2():
    cfg = case_study(2, n_values=(10_000,), replicates=200, base_seed=42,
                     trim=10)
    return run_study(cfg, workers=WORKERS)


def test_01_volterra_recursion_equivalence():
    t0 = time.time()
    worst = 0.0
    for seed in range(5):
        s = simulate(SPEC, CASE2, SimConfig(n=50, burn_in=0, J=64, seed=seed))
        for t in range(1, 51):
            v = volterra_sigma(SPEC, CASE2, s.eps[: t - 1], t, K_max=t)
            worst = max(worst, abs(v - s.sigma[t - 1]))
    elapsed = time.time() - t0
    report(1, "chain-expansion equals recursion", worst < 1e-10 and elapsed < 10,
           f"max dev {worst:.3e}, {elapsed:.1f}s")


def test_02_score_and_hessian_vs_finite_differences(space):
    t0 = time.time()
    s = simulate(SPEC, CASE1, SimConfig(n=500, burn_in=4000, J=2000, seed=314))
    ev = PathEvaluator(LossSpec("trunc", 0.01, beta=1.0), SPEC, s.x_obs)
    rng = np.random.default_rng(2024)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(20):
        d = rng.uniform(0.02, 0.43)
        c = rng.uniform(0.05, 0.9) * space.c_max(d, SPEC)
        a = rng.uniform(0.3, 3.0)
        th = Theta(d, c, a)
        le = ev(th)
        fd_g = np.empty(3)
        fd_h = np.empty((3, 3))
        for i, e in enumerate(np.eye(3)):
            hg = 1e-6
            up, dn = Theta(*(th.as_array() + hg * e)), Theta(*(th.as_array() - hg * e))
            fd_g[i] = (ev(up, derivatives=0).value
                       - ev(dn, derivatives=0).value) / (2 * hg)
            hh = 1e-5
            up, dn = Theta(*(th.as_array() + hh * e)), Theta(*(th.as_array() - hh * e))
            fd_h[i] = (ev(up, derivatives=1).score
                       - ev(dn, derivatives=1).score) / (2 * hh)
        worst_g = max(worst_g, np.linalg.norm(fd_g - le.score)
                      / np.linalg.norm(le.score))
        worst_h = max(worst_h, np.linalg.norm(fd_h - le.hessian)
                      / np.linalg.norm(le.hessian))
    elapsed = time.time() - t0
    report(2, "analytic score/Hessian vs finite differences",
           worst_g < 1e-5 and worst_h < 1e-4 and elapsed < 30,
           f"score rel {worst_g:.2e}, hessian rel {worst_h:.2e}, {elapsed:.1f}s")


def test_03_martingale_score_at_truth(truth_terms):
    S = truth_terms[0]
    mean = S.mean(axis=0)
    se = S.std(axis=0, ddof=1) / math.sqrt(len(S))
    ratio = np.abs(mean) / se
    report(3, "mean score vanishes at the truth", bool(np.all(ratio < 3.0)),
           f"|mean|/se = {np.round(ratio, 2)}")


def test_04_sandwich_sd_reference_values(sandwich_results):
    r1, r2 = sandwich_results
    ok1 = abs(r1.sd[0] - 1.68) <= 0.15
    ok2 = abs(r2.sd[0] - 1.14) <= 0.15
    report(4, "asymptotic sd of the memory exponent", ok1 and ok2,
           f"case1 sd_d = {r1.sd[0]:.3f} (target 1.68 +- 0.15), "
           f"case2 sd_d = {r2.sd[0]:.3f} (target 1.14 +- 0.15)")


def test_04b_sandwich_matches_score_and_hessian(sandwich_results,
                                                truth_terms):
    # at the truth the per-step scores are martingale differences, so
    # n Cov(mean score) estimates G and the mean Hessian estimates H
    S, hessians = truth_terms
    G, H = sandwich_results[0].G, sandwich_results[0].H
    n, rng = 2000, np.random.default_rng(4)
    boot = [n * S[rng.integers(0, len(S), len(S))].var(axis=0, ddof=1)
            for _ in range(1000)]
    z_G = ((np.diag(G) - n * S.var(axis=0, ddof=1))
           / np.std(boot, axis=0, ddof=1))
    z_H = ((H - hessians.mean(axis=0))
           / (hessians.std(axis=0, ddof=1) / math.sqrt(len(hessians))))
    worst = max(np.abs(z_G).max(), np.abs(z_H).max())
    report("4b", "sandwich G and H match the loss at the truth",
           worst < Z_4B,
           f"diag G z = {np.round(z_G, 2)}, max |H z| = "
           f"{np.abs(z_H).max():.2f} (bound {Z_4B})")


def test_05_replication_study_summary_stats(study_case1, study_case2):
    s1k = study_case1.summaries[1000]
    s10k = study_case1.summaries[10_000]
    c2 = study_case2.summaries[10_000]
    checks = {
        "case1 n=1000 trimmed median": (s1k.trimmed.median, 0.09, 0.11),
        "case1 n=10000 trimmed median": (s10k.trimmed.median, 0.09, 0.11),
        "case1 n=1000 scaled MAD": (s1k.trimmed.s_tilde_scaled,
                                    1.882 - 0.25, 1.882 + 0.25),
        "case1 n=10000 scaled MAD": (s10k.trimmed.s_tilde_scaled,
                                     1.604 - 0.25, 1.604 + 0.25),
        "case2 n=10000 scaled MAD": (c2.trimmed.s_tilde_scaled,
                                     1.262 - 0.25, 1.262 + 0.25),
    }
    ok = all(lo <= v <= hi for v, lo, hi in checks.values())
    ok = ok and c2.trimmed.s <= c2.all.s
    detail = ", ".join(f"{k} = {v:.3f}" for k, (v, _, _) in checks.items())
    report(5, "summary statistics match reference tables", ok, detail)


def test_05b_boundary_pileup_declines_with_n(study_case1):
    frac = {}
    for n in (1000, 10_000):
        rows = [r for r in study_case1.rows if r.n == n]
        frac[n] = np.mean([r.at_boundary for r in rows])
    report("5b", "boundary pileup fraction declines",
           frac[10_000] < frac[1000],
           f"fraction at boundary: n=1000 {frac[1000]:.3f}, "
           f"n=10000 {frac[10_000]:.3f}")


def test_06_window_summand_counts():
    high = [m_of_n(n, 0.799) + 1 for n in (1000, 2500, 5000, 10_000)]
    low = [m_of_n(n, 0.599) + 1 for n in (1000, 2500, 5000, 10_000)]
    ok = high == [249, 518, 902, 1570] and low == [62, 108, 164, 248]
    report(6, "truncated-window summand counts", ok, f"{high}, {low}")


def test_07_tail_variance_decay_slopes():
    ts = np.unique(np.round(np.logspace(2, 4, 30)).astype(int))
    slopes = {}
    for label, th in (("case1", CASE1), ("case2", CASE2)):
        pairs = [(int(t), tail_variance(SPEC, th, int(t))) for t in ts]
        slopes[label] = fit_decay(pairs, 100, 10_000).slope
    ok = (abs(slopes["case1"] + 0.8) <= 0.02
          and abs(slopes["case2"] + 0.6) <= 0.02)
    report(7, "tail-variance decay exponents", ok,
           f"slopes {slopes['case1']:.4f} (target -0.8), "
           f"{slopes['case2']:.4f} (target -0.6)")


def test_08_loss_identifies_truth_on_grid(space):
    t0 = time.time()
    s = simulate(SPEC, CASE1, SimConfig(n=20_000, burn_in=10_000, J=2000,
                                        seed=2024))
    ev = PathEvaluator(LossSpec("trunc", 0.01, beta=1.0), SPEC, s.x_obs)
    v0 = ev(CASE1, derivatives=0).value
    wins = total = 0
    for d in np.linspace(0.0, 0.44, 5):
        for u in np.linspace(0.0, 1.0, 5):
            c = u * space.c_max(d, SPEC)
            for a in np.linspace(0.4, 2.5, 5):
                th = Theta(d, c, a)
                if np.linalg.norm(th.as_array() - CASE1.as_array()) < 0.1:
                    continue
                total += 1
                wins += ev(th, derivatives=0).value > v0
    elapsed = time.time() - t0
    ok = wins >= 0.95 * total and elapsed < 120
    report(8, "loss exceeds its value at the truth", ok,
           f"{wins}/{total} grid points, {elapsed:.1f}s")


def test_09_information_matrices_positive_definite(sandwich_results):
    ok = True
    eigs = {}
    for label, r in zip(("case1", "case2"), sandwich_results):
        try:
            np.linalg.cholesky(r.G)
            np.linalg.cholesky(r.H)
        except np.linalg.LinAlgError:
            ok = False
        eigs[label] = (np.linalg.eigvalsh(r.G)[0], np.linalg.eigvalsh(r.H)[0])
    report(9, "G and H pass Cholesky", ok,
           f"min eigenvalues {eigs}")


def test_10_consistency_trend():
    cfg = case_study(1, n_values=(1000, 4000), replicates=100, base_seed=77,
                     trim=10)
    rep = run_study(cfg, workers=WORKERS)
    err = {}
    for n in (1000, 4000):
        d_hats = np.array([r.d_hat for r in rep.rows if r.n == n])
        err[n] = float(np.mean(np.abs(d_hats - CASE1.d)))
    report(10, "mean absolute error shrinks with n", err[4000] < err[1000],
           f"mean |d_hat - d0|: n=1000 {err[1000]:.4f}, "
           f"n=4000 {err[4000]:.4f}")


def test_11_degenerate_closed_form():
    th0 = Theta(0.0, 0.0, 1.3)
    s = simulate(SPEC, th0, SimConfig(n=2000, burn_in=100, J=100, seed=5))
    res = estimate(LossSpec("trunc", 0.01, beta=1.0), SPEC, s.x_obs,
                   fix={"c": 0.0})
    oracle = math.sqrt(np.mean(s.x_obs ** 2))
    dev = abs(res.theta_hat.a - oracle)
    report(11, "frozen-scale intercept equals root mean square", dev < 1e-4,
           f"|a_hat - rms| = {dev:.2e}")
