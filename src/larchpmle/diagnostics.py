"""Long-memory diagnostics: power-law decay fits and score-gap experiments.

Both the autocovariance of the squared process and the tail variance of the
lag weights decay like k**(2d - 1); fitting a log-log slope to either gives
an empirical check of the long-memory exponent.  The score-gap experiment
measures how far the observed-past score is from the full-history score on
the truncated estimation window, the quantity whose vanishing underpins the
truncated estimator's central limit theorem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffSpec, Theta
from .errors import DomainError, InsufficientDataError
from .likelihood import LossSpec, PathEvaluator, m_of_n
from .simulate import SimConfig, derive_seed, simulate

__all__ = ["DecayFit", "fit_decay", "ScoreGapResult", "score_gap"]


@dataclass(frozen=True)
class DecayFit:
    """OLS fit of ln(value) on ln(k) over positive pairs in a lag range."""

    slope: float
    intercept: float
    r2: float
    k_range: tuple
    n_points: int


def fit_decay(pairs, k_min: float, k_max: float) -> DecayFit:
    """Least-squares log-log decay fit.

    ``pairs`` is a sequence of (k, value); pairs outside [k_min, k_max] or
    with a nonpositive or non-finite k or value are excluded.  At least 5
    usable pairs are required.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InsufficientDataError("pairs must be a sequence of (k, value)")
    k, v = arr[:, 0], arr[:, 1]
    keep = ((k >= k_min) & (k <= k_max) & (k > 0.0) & (v > 0.0)
            & np.isfinite(k) & np.isfinite(v))
    if keep.sum() < 5:
        raise InsufficientDataError(
            f"only {int(keep.sum())} usable pairs in range, need >= 5")
    lk, lv = np.log(k[keep]), np.log(v[keep])
    slope, intercept = np.polyfit(lk, lv, 1)
    resid = lv - (slope * lk + intercept)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    ss_res = float(resid @ resid)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return DecayFit(slope=float(slope), intercept=float(intercept), r2=r2,
                    k_range=(float(k[keep].min()), float(k[keep].max())),
                    n_points=int(keep.sum()))


@dataclass(frozen=True)
class ScoreGapResult:
    """Empirical scaled score gap on the truncated window."""

    empirical: float
    per_replicate: tuple


def score_gap(spec: CoeffSpec, theta0: Theta, epsilon: float, n: int,
              beta: float, replicates: int, base_seed: int = 0,
              burn_in: int = SimConfig.burn_in) -> ScoreGapResult:
    """Monte-Carlo estimate of the full-vs-observed-past score difference.

    Per replicate, the d-component of the score is evaluated at theta0
    twice on the window that beta gives both variants, the last
    m(n) + 1 = floor(n^beta) points: once by ``"full"`` on the simulated
    sample with sigma_t reconstructed from all burn_in + t - 1 values
    before t (J = burn_in + n - 1 lags, zeros before the path's first
    step) and once by ``"trunc"`` from the observed past only; the absolute
    difference is scaled by the square root of the window size.  The
    d-component is the one whose central limit theorem the gap decides.
    The gap is exactly zero with c = 0, where both d-scores vanish, and
    with burn_in = 0, where both read the same history.  Its order is
    :func:`larchpmle.asymptotics.predicted_rate`.  Fewer than one replicate
    raises :class:`DomainError` before any work.
    """
    if replicates < 1:
        raise DomainError(f"replicates {replicates} must be >= 1")
    m = m_of_n(n, beta)
    full = LossSpec("full", epsilon, beta=beta, J=burn_in + n - 1)
    trunc = LossSpec("trunc", epsilon, beta=beta)
    gaps = []
    for r in range(replicates):
        seed = derive_seed(base_seed, r)
        sample = simulate(spec, theta0,
                          SimConfig(n=n, burn_in=burn_in, seed=seed))
        evs = (PathEvaluator(full, spec, sample),
               PathEvaluator(trunc, spec, sample.x_obs))
        s_full, s_bar = (ev(theta0, derivatives=1).score[0] for ev in evs)
        gaps.append(math.sqrt(m + 1) * abs(s_full - s_bar))
    return ScoreGapResult(empirical=float(np.mean(gaps)),
                          per_replicate=tuple(gaps))
