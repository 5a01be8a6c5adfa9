"""Asymptotic covariance of the pseudo-likelihood estimators.

The limiting covariance combines the score outer-product matrix
G = (E eps^4 - 1) E[4 sigma^6 / (sigma^2 + eps)^4 sdot sdot^T] and the
expected Hessian H = E[4 sigma^2 / (sigma^2 + eps)^2 sdot sdot^T], both
evaluated at the true parameter by an ergodic average along one long
simulated path.  Reported standard deviations come in two flavors:

* ``sd``       : per-component values sqrt(G_ii) / H_ii, the asymptotic sd
  when that parameter alone is estimated and the others are known.  This
  is the convention the replication study (which profiles out c and a)
  compares against.
* ``sd_joint`` : sqrt(diag(H^-1 G H^-1)), the joint three-parameter case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffSpec, NoiseMoments, ParamSpace, Theta
from .errors import DomainError, SingularityError
from .likelihood import LossSpec, PathEvaluator
from .simulate import Sample, SimConfig, simulate

__all__ = ["SandwichResult", "LimitH0Result", "RatePrediction",
           "sandwich", "limit_h0", "h0_from_arrays", "predicted_rate",
           "sigma_and_gradient"]


@dataclass(frozen=True)
class SandwichResult:
    """Monte-Carlo estimates of G, H, the sandwich H^-1 G H^-1, and sds."""

    G: np.ndarray
    H: np.ndarray
    cov: np.ndarray
    sd: np.ndarray
    sd_joint: np.ndarray
    mc_samples: int
    se_G: np.ndarray
    se_H: np.ndarray
    cond_H: float


@dataclass(frozen=True)
class LimitH0Result:
    """Ergodic average of 4 sdot sdot^T / sigma^2, or a divergence flag.

    ``matrix`` is None when the running average failed the convergence
    monitor (the expectation may be infinite); ``checkpoints`` holds the
    prefix averages of the matrix trace used by the monitor.
    """

    matrix: np.ndarray | None
    diverged: bool
    checkpoints: tuple


@dataclass(frozen=True)
class RatePrediction:
    """Predicted exponents for the truncated-window estimator.

    ``score_gap_order``: the scaled score-difference between the
    infinite-past and observed-past losses grows like n to this power;
    negative means the difference vanishes and the CLT carries over.
    ``rate_exponent``: E|theta_hat - theta0| decays like n to this power
    (nan when beta exceeds the long-memory border, where no rate is known).
    """

    score_gap_order: float
    rate_exponent: float
    regime: str


def sigma_and_gradient(spec: CoeffSpec, theta: Theta, sample: Sample,
                       J: int | None = None):
    """sigma_t(theta) and its theta-gradient over the analysis window.

    Both are built from the full-history lag sums of
    :class:`~larchpmle.likelihood.PathEvaluator` (J lags into the
    pre-sample; J defaults to the sample's simulation truncation), so the
    sample's burn-in must be at least J.
    Returns (sigma, S) with S of shape (n, 3) in (d, c, a) order.
    """
    ev = PathEvaluator(LossSpec("full", 0.0, J=J), spec, sample)
    v0, v1, _ = ev.lag_sums(theta, derivatives=1)
    sig = theta.a + theta.c * v0
    S = np.stack([theta.c * v1, v0, np.ones(sample.n)], axis=1)
    return sig, S


def _weighted_mean_se(w: np.ndarray, S: np.ndarray, blocks: int):
    """Mean of w_t S_t S_t^T over t, and its entrywise standard error from
    the means of ``blocks`` consecutive blocks; no (n, 3, 3) array is
    formed."""
    n = len(w)
    mean = np.einsum("i,ij,ik->jk", w, S, S, optimize=True) / n
    blocks = max(2, min(blocks, n))
    m = n // blocks
    wb = w[:blocks * m].reshape(blocks, m)
    Sb = S[:blocks * m].reshape(blocks, m, 3)
    bm = np.einsum("bi,bij,bik->bjk", wb, Sb, Sb, optimize=True) / m
    return mean, bm.std(axis=0, ddof=1) / math.sqrt(blocks)


def sandwich(spec: CoeffSpec, theta0: Theta, epsilon: float,
             nm: NoiseMoments, path_length: int = 500_000,
             burn_in: int = 10_000, J: int | None = None, seed: int = 0,
             blocks: int = 32, space: ParamSpace | None = None,
             ) -> SandwichResult:
    """Estimate G, H, and the sandwich covariance at theta0 by simulation.

    One long stationary path is generated and the defining expectations are
    replaced by ergodic averages.  H is factorized by Cholesky; failure
    raises :class:`SingularityError` with eigenvalue diagnostics (this is
    the expected outcome for degenerate parameters such as c = 0).
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    mu4 = nm.moment(4)
    Jeff = J if J is not None else spec.J
    cfg = SimConfig(n=path_length, burn_in=burn_in, J=Jeff, seed=seed)
    samp = simulate(spec, theta0, cfg, space=space)
    sig, S = sigma_and_gradient(spec, theta0, samp, J=Jeff)

    s2 = sig * sig
    s2e = s2 + epsilon
    wG = 4.0 * s2 ** 3 / s2e ** 4
    wH = 4.0 * s2 / s2e ** 2
    G, se_G = _weighted_mean_se((mu4 - 1.0) * wG, S, blocks)
    H, se_H = _weighted_mean_se(wH, S, blocks)

    eigH = np.linalg.eigvalsh(H)
    try:
        np.linalg.cholesky(G)
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise SingularityError(
            f"G or H is not positive definite; H eigenvalues {eigH}, "
            f"G eigenvalues {np.linalg.eigvalsh(G)}")
    cond = float(eigH[-1] / eigH[0]) if eigH[0] > 0 else math.inf
    if cond > 1e12:
        raise SingularityError(
            f"H is near-singular (condition number {cond:.3g}); "
            f"eigenvalues {eigH}")
    Hinv = np.linalg.inv(H)
    cov = Hinv @ G @ Hinv
    sd = np.sqrt(np.diag(G)) / np.diag(H)
    sd_joint = np.sqrt(np.diag(cov))
    return SandwichResult(G=G, H=H, cov=cov, sd=sd, sd_joint=sd_joint,
                          mc_samples=path_length, se_G=se_G, se_H=se_H,
                          cond_H=cond)


def h0_from_arrays(sigma: np.ndarray, S: np.ndarray,
                   rel_tol: float = 0.05, share_tol: float = 0.1,
                   ) -> LimitH0Result:
    """Running average of 4 sdot sdot^T / sigma^2 with a divergence monitor.

    The average is declared divergent when prefix averages of the trace
    fail a Cauchy criterion (relative span of the prefix averages above
    ``rel_tol``), when any single time point contributes more than
    ``share_tol`` of the trace sum, or when a term is non-finite.
    Divergence is a valid outcome: E(sigma^-2) need not be finite.
    """
    n = len(sigma)
    with np.errstate(divide="ignore", over="ignore"):
        w = 4.0 / (sigma * sigma)
        trace_terms = w * np.einsum("ij,ij->i", S, S)
    if not np.all(np.isfinite(trace_terms)):
        return LimitH0Result(matrix=None, diverged=True, checkpoints=())
    checkpoints = tuple(
        float(np.mean(trace_terms[: max(1, n // k)])) for k in (8, 4, 2, 1))
    span = ((max(checkpoints) - min(checkpoints))
            / max(abs(checkpoints[-1]), 1e-300))
    share = float(trace_terms.max() / max(trace_terms.sum(), 1e-300))
    if span > rel_tol or share > share_tol:
        return LimitH0Result(matrix=None, diverged=True,
                             checkpoints=checkpoints)
    H0 = np.einsum("i,ij,ik->jk", w, S, S) / n
    return LimitH0Result(matrix=H0, diverged=False, checkpoints=checkpoints)


def limit_h0(spec: CoeffSpec, theta0: Theta, path_length: int = 500_000,
             burn_in: int = 10_000, J: int | None = None, seed: int = 0,
             space: ParamSpace | None = None) -> LimitH0Result:
    """Monte-Carlo limit of the unregularized Hessian 4 E[sdot sdot^T / sigma^2].

    Returns a divergence flag instead of a matrix when the running average
    does not settle (see :func:`h0_from_arrays`).
    """
    Jeff = J if J is not None else spec.J
    cfg = SimConfig(n=path_length, burn_in=burn_in, J=Jeff, seed=seed)
    samp = simulate(spec, theta0, cfg, space=space)
    sig, S = sigma_and_gradient(spec, theta0, samp, J=Jeff)
    return h0_from_arrays(sig, S)


def predicted_rate(n: int, beta: float, d: float) -> RatePrediction:
    """Exponents predicted for the truncated-window estimator at (beta, d).

    The score-gap order is beta/2 + d - 1/2.  For beta below the border
    1 - 2d the estimator converges at rate n^(-beta/2); exactly at the
    border the rate is n^(-(1/2 - d)); beyond it no rate is established.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if not 0.0 < beta <= 1.0:
        raise DomainError("beta must be in (0, 1]")
    if not 0.0 <= d < 0.5:
        raise DomainError("d must be in [0, 1/2)")
    gap = beta / 2.0 + d - 0.5
    border = 1.0 - 2.0 * d
    if abs(beta - border) <= 1e-12:
        return RatePrediction(gap, -(0.5 - d), "border")
    if beta < border:
        return RatePrediction(gap, -beta / 2.0, "clt")
    return RatePrediction(gap, math.nan, "open")
