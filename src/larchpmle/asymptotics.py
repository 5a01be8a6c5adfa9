"""Asymptotic covariance of the pseudo-likelihood estimators.

The limiting covariance combines the score outer-product matrix
G = (E eps^4 - 1) E[4 sigma^6 / (sigma^2 + eps)^4 sdot sdot^T] and the
expected Hessian H = E[4 sigma^2 / (sigma^2 + eps)^2 sdot sdot^T], both
evaluated at the true parameter by an ergodic average along one long
simulated path.  ``sandwich`` reads the n points of that path from the
simulator in pieces cut once, at k n // (B p), k = 0..B p, and adds up
each of its B = 32 standard-error blocks over its p pieces,
p = ceil((n // B) / max(2 J, 2048)) for J lags and the simulator's
2048-step chunk (at least 2 J, so that a piece holds as many points as
the lags it reads): every block bound is a cut, piece k lies in block
k // p, and a piece holds at most max(2 J, 2048) + 1 points, so no array
grows with the path.  At 500k points and J = 2000 a block of 15625 points
is four pieces of 3906 or 3907, each one 6144-point transform, and
``sandwich`` peaks at 1.84 MB (``tracemalloc``; 1.88 MB at 2M points).
At a tiny eps (1e-300) H is the unregularized Hessian
4 E[sdot sdot^T / sigma^2], whose expectation need not be finite: an
se_H close to H itself shows that its average has not settled.
Reported standard deviations come in two flavors:

* ``sd``       : per-component values sqrt(G_ii) / H_ii, the asymptotic sd
  when that parameter alone is estimated and the others are known.  This
  is the convention the replication study (which profiles out c and a)
  compares against.
* ``sd_joint`` : sqrt(diag(H^-1 G H^-1)), the joint three-parameter case.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import CoeffSpec, NoiseMoments, Theta
from .errors import DomainError, HistoryError, SingularityError
from .likelihood import LossSpec, PathEvaluator
# simulate is not called here; bench/tracing.py wraps it by this name
from .simulate import (_BLOCK, _CHUNK, Sample, SimConfig, _checked, _pieces,
                       simulate)

__all__ = ["SandwichResult", "RatePrediction", "sandwich", "predicted_rate",
           "sigma_and_gradient"]

# consecutive blocks, covering the path, whose means give the standard
# errors of G and H
_SE_BLOCKS = 32


@dataclass(frozen=True)
class SandwichResult:
    """Monte-Carlo estimates of G, H, the sandwich H^-1 G H^-1, and sds."""

    G: np.ndarray
    H: np.ndarray
    cov: np.ndarray
    sd: np.ndarray
    sd_joint: np.ndarray
    se_G: np.ndarray
    se_H: np.ndarray


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


def sigma_and_gradient(spec: CoeffSpec, theta: Theta, sample: Sample):
    """sigma_t(theta) and its theta-gradient over the analysis window.

    Both are built from the full-history lag sums of
    :class:`~larchpmle.likelihood.PathEvaluator` (J lags into the
    pre-sample, J the sample's simulation truncation), so the sample's
    burn-in must be at least J.  Returns (sigma, S), S of shape (n, 3) in
    (d, c, a) order and in column-major layout, for the sample's n points.
    """
    ev = PathEvaluator(LossSpec("full", 0.0), spec, sample)
    v0, v1, _ = ev.lag_sums(theta.d, derivatives=1)
    sig = theta.a + theta.c * v0
    # column-major: the weighted sums S^T diag(w) S read contiguous rows of
    # S^T, twice as fast as strided ones
    S = np.empty((3, ev.w)).T
    np.multiply(theta.c, v1, out=S[:, 0])
    S[:, 1] = v0
    S[:, 2] = 1.0
    return sig, S


def _block_sums(sig: np.ndarray, S: np.ndarray,
                epsilon: float) -> np.ndarray:
    """Sums of w_t S_t S_t^T over one piece for the weights
    4 sigma^6 / (sigma^2 + eps)^4 of G (without its factor E eps^4 - 1)
    and 4 sigma^2 / (sigma^2 + eps)^2 of H, times k^4 and k^2 for
    k = max(1, eps) so that no eps under- or overflows them; (2, 3, 3)."""
    s2 = sig ** 2
    s2e = (s2 + epsilon) / max(1.0, epsilon)
    wH = 4.0 * s2 / s2e ** 2
    wG = wH * (s2 / s2e) ** 2
    return np.stack([(S.T * wG) @ S, (S.T * wH) @ S])


def _path_config(spec: CoeffSpec, theta0: Theta, path_length: int,
                 burn_in: int, seed: int) -> SimConfig:
    """The path of an ergodic average, with its length (2 at least), its
    burn-in (J lags of sigma at least) and theta0 checked up front."""
    if path_length < 2:
        raise DomainError(f"path length {path_length} must be at least 2")
    if burn_in < spec.J:
        raise HistoryError(
            f"burn-in {burn_in} is shorter than the {spec.J} lags of sigma")
    return _checked(spec, theta0,
                    SimConfig(n=path_length, burn_in=burn_in, seed=seed))


def _bounds(n: int) -> np.ndarray:
    """Bounds i n // B, i = 0..B, of B near-equal blocks that cover n."""
    B = max(2, min(_SE_BLOCKS, n))
    return np.arange(B + 1) * n // B


def _blocks(spec: CoeffSpec, theta0: Theta, cfg: SimConfig):
    """(i, sigma, S), sigma and S of :func:`sigma_and_gradient`, for each
    piece of the path of ``cfg`` (from :func:`_path_config`) that
    :func:`sandwich` sums, cut as the module docstring says, i the block
    of :func:`_bounds` it lies in."""
    J, n = cfg.J, cfg.n
    B = len(_bounds(n)) - 1
    p = -(-(n // B) // max(2 * J, _CHUNK * _BLOCK))
    cuts = np.arange(B * p + 1) * n // (B * p)
    pieces = _pieces(spec, theta0, cfg, cfg.burn_in + cuts)
    for k, piece in enumerate(pieces):
        sample = Sample(*piece, config=replace(
            cfg, n=len(piece[0]) - J, burn_in=J))
        yield k // p, *sigma_and_gradient(spec, theta0, sample)


def sandwich(spec: CoeffSpec, theta0: Theta, epsilon: float,
             nm: NoiseMoments, path_length: int = 500_000,
             burn_in: int = 10_000, seed: int = 0) -> SandwichResult:
    """Estimate G, H, and the sandwich covariance at theta0 by simulation.

    One long stationary path, truncated at the spec's J lags, is generated
    and the defining expectations are replaced by ergodic averages;
    ``se_G`` and ``se_H`` are the standard errors of those averages from
    the means of 32 consecutive blocks that cover the path.  Sigma, its
    gradient and the sums of G and H are formed one piece of about
    max(2 J, 2048) points at a time and added up per block
    (:func:`_blocks`), so no array grows with the path.  H is
    factorized by Cholesky; failure raises :class:`SingularityError` with
    eigenvalue diagnostics (this is the expected outcome for degenerate
    parameters such as c = 0).  A burn-in shorter than the spec's J
    raises :class:`HistoryError` before anything is simulated.
    """
    if not 0.0 < epsilon < math.inf:
        raise DomainError(f"epsilon {epsilon} must be in (0, inf)")
    mu4 = nm.moment(4)
    cfg = _path_config(spec, theta0, path_length, burn_in, seed)
    bounds = _bounds(path_length)
    sums = np.zeros((len(bounds) - 1, 2, 3, 3))
    for i, sig, S in _blocks(spec, theta0, cfg):
        sums[i] += _block_sums(sig, S, epsilon)
    sums[:, 0] *= mu4 - 1.0
    # the sums hold k^4 G and k^2 H (see _block_sums): k cancels in every
    # output but these and their errors, divided by k one step at a time
    # as the float k^4 overflows for eps above 1e77
    k = max(1.0, epsilon)
    kG, kH = sums.sum(axis=0) / path_length
    means = sums / np.diff(bounds)[:, None, None, None]
    se_kG, se_kH = means.std(axis=0, ddof=1) / math.sqrt(len(means))

    eigH = np.linalg.eigvalsh(kH)
    try:
        np.linalg.cholesky(kG)
        np.linalg.cholesky(kH)
    except np.linalg.LinAlgError:
        raise SingularityError(
            f"G or H is not positive definite; eigenvalues of k^2 H {eigH} "
            f"and of k^4 G {np.linalg.eigvalsh(kG)}, k = max(1, eps)")
    cond = float(eigH[-1] / eigH[0]) if eigH[0] > 0 else math.inf
    if cond > 1e12:
        raise SingularityError(
            f"H is near-singular (condition number {cond:.3g}); "
            f"eigenvalues of max(1, eps)^2 H {eigH}")
    Hinv = np.linalg.inv(kH)
    cov = Hinv @ kG @ Hinv
    sd = np.sqrt(np.diag(kG)) / np.diag(kH)
    sd_joint = np.sqrt(np.diag(cov))
    return SandwichResult(G=kG / k / k / k / k, H=kH / k / k, cov=cov, sd=sd,
                          sd_joint=sd_joint, se_G=se_kG / k / k / k / k,
                          se_H=se_kH / k / k)


def predicted_rate(beta: float, d: float) -> RatePrediction:
    """Exponents predicted for the truncated-window estimator at (beta, d).

    The score-gap order is beta/2 + d - 1/2.  For beta below the border
    1 - 2d the estimator converges at rate n^(-beta/2); exactly at the
    border the rate is n^(-(1/2 - d)); beyond it no rate is established.
    """
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
