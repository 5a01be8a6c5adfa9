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
from .errors import DomainError, HistoryError, SingularityError
from .likelihood import LossSpec, PathEvaluator
from .simulate import Sample, SimConfig, simulate

__all__ = ["SandwichResult", "LimitH0Result", "RatePrediction",
           "sandwich", "limit_h0", "h0_from_arrays", "predicted_rate",
           "sigma_and_gradient"]

# consecutive blocks, covering the path, whose means give the standard
# errors of G and H
_SE_BLOCKS = 32
# divergence monitor of h0_from_arrays: largest relative span of the prefix
# averages of the trace, and largest share of one time point in its sum
_H0_SPAN_TOL = 0.05
_H0_SHARE_TOL = 0.1


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
                       window: tuple | None = None):
    """sigma_t(theta) and its theta-gradient over the analysis window, or
    over ``window`` (1-based, inclusive) when it is given.

    Both are built from the full-history lag sums of
    :class:`~larchpmle.likelihood.PathEvaluator` (J lags into the
    pre-sample, J the sample's simulation truncation), so the sample's
    burn-in must be at least J.
    Returns (sigma, S) with S of shape (w, 3) in (d, c, a) order, w the
    number of points in the window.
    """
    ev = PathEvaluator(LossSpec("full", 0.0), spec, sample, window=window)
    v0, v1, _ = ev.lag_sums(theta, derivatives=1)
    sig = theta.a + theta.c * v0
    S = np.empty((ev.w, 3))
    np.multiply(theta.c, v1, out=S[:, 0])
    S[:, 1] = v0
    S[:, 2] = 1.0
    return sig, S


def _block_sums(sig: np.ndarray, S: np.ndarray,
                epsilon: float) -> np.ndarray:
    """Sums of w_t S_t S_t^T over one block for the weights
    4 sigma^6 / (sigma^2 + eps)^4 of G (without its factor E eps^4 - 1)
    and 4 sigma^2 / (sigma^2 + eps)^2 of H; shape (2, 3, 3)."""
    s2 = sig ** 2
    s2e = s2 + epsilon
    wH = 4.0 * s2 / s2e ** 2
    wG = wH * (s2 / s2e) ** 2
    return np.stack([(S.T * wG) @ S, (S.T * wH) @ S])


def _simulate_path(spec: CoeffSpec, theta0: Theta, path_length: int,
                   burn_in: int, seed: int, space: ParamSpace | None) -> Sample:
    """The stationary path of an ergodic average, whose burn-in must hold
    the J lags of its first point's sigma; checked before simulating."""
    if burn_in < spec.J:
        raise HistoryError(
            f"burn-in {burn_in} is shorter than the {spec.J} lags of sigma")
    cfg = SimConfig(n=path_length, burn_in=burn_in, seed=seed)
    return simulate(spec, theta0, cfg, space=space)


def sandwich(spec: CoeffSpec, theta0: Theta, epsilon: float,
             nm: NoiseMoments, path_length: int = 500_000,
             burn_in: int = 10_000, seed: int = 0,
             space: ParamSpace | None = None) -> SandwichResult:
    """Estimate G, H, and the sandwich covariance at theta0 by simulation.

    One long stationary path, truncated at the spec's J lags, is generated
    and the defining expectations are replaced by ergodic averages;
    ``se_G`` and ``se_H`` are the standard errors of those averages from
    the means of 32 consecutive blocks that cover the path.  sigma, its
    gradient and the sums of G and H are formed one block at a time, so
    beyond the sample only block-sized arrays exist.  H
    is factorized by Cholesky; failure raises :class:`SingularityError`
    with eigenvalue diagnostics (this is the expected outcome for
    degenerate parameters such as c = 0).  A burn-in shorter than the
    spec's J raises :class:`HistoryError` before anything is simulated.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    mu4 = nm.moment(4)
    samp = _simulate_path(spec, theta0, path_length, burn_in, seed, space)

    # blocks of (near) equal length that cover the path
    n = samp.n
    bounds = np.linspace(0, n, max(2, min(_SE_BLOCKS, n)) + 1).astype(int)
    sums = np.empty((len(bounds) - 1, 2, 3, 3))
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        sig, S = sigma_and_gradient(spec, theta0, samp, window=(lo + 1, hi))
        sums[b] = _block_sums(sig, S, epsilon)
    sums[:, 0] *= mu4 - 1.0
    G, H = sums.sum(axis=0) / n
    means = sums / np.diff(bounds)[:, None, None, None]
    se_G, se_H = means.std(axis=0, ddof=1) / math.sqrt(len(means))

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


def h0_from_arrays(sigma: np.ndarray, S: np.ndarray) -> LimitH0Result:
    """Running average of 4 sdot sdot^T / sigma^2 with a divergence monitor.

    The average is declared divergent when prefix averages of the trace
    fail a Cauchy criterion (relative span of the prefix averages above
    0.05), when any single time point contributes more than 0.1 of the
    trace sum, or when a term is non-finite.
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
    if span > _H0_SPAN_TOL or share > _H0_SHARE_TOL:
        return LimitH0Result(matrix=None, diverged=True,
                             checkpoints=checkpoints)
    return LimitH0Result(matrix=(S.T * w) @ S / n, diverged=False,
                         checkpoints=checkpoints)


def limit_h0(spec: CoeffSpec, theta0: Theta, path_length: int = 500_000,
             burn_in: int = 10_000, seed: int = 0,
             space: ParamSpace | None = None) -> LimitH0Result:
    """Monte-Carlo limit of the unregularized Hessian 4 E[sdot sdot^T / sigma^2].

    Returns a divergence flag instead of a matrix when the running average
    does not settle (see :func:`h0_from_arrays`).  A burn-in shorter than
    the spec's J raises :class:`HistoryError` before anything is simulated.
    """
    samp = _simulate_path(spec, theta0, path_length, burn_in, seed, space)
    return h0_from_arrays(*sigma_and_gradient(spec, theta0, samp))


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
