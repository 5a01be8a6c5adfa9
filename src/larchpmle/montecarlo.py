"""Replication harness: repeated simulate/estimate runs with robust summaries.

A study draws N independent paths at the true parameter, estimates the
long-memory exponent on each (by default with the scale and intercept held
at their true values, profiling the single reported parameter), and
tabulates robust and non-robust location/scale/skewness statistics, both on
all N estimates and after discarding the k smallest ones (the runs that
terminate at the lower box edge become extreme outliers; dropping them is
what makes the non-robust columns informative).

Only a study run on several workers imports ``concurrent.futures``, and
only ``normal_plot_data`` imports ``statistics``; serial studies and the
other commands do without them.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoeffSpec, ParamSpace, Theta
from .errors import DomainError, WindowError
from .estimator import _MIN_WINDOW, estimate
from .likelihood import LossSpec, m_of_n
from .simulate import SimConfig, derive_seed, simulate

__all__ = ["MAD_SCALE", "StudyConfig", "case_study", "ReplicateRow",
           "StatRow", "Summary", "McReport", "run_study", "summarize",
           "normal_plot_data", "acf"]

# Phi^-1(3/4): divides the MAD to make it consistent for the normal sd.
MAD_SCALE = 0.6744897501960817


@dataclass(frozen=True)
class StudyConfig:
    """Study description: truth, loss constants, sizes, seeds, trimming."""

    theta0: Theta
    epsilon: float
    beta: float
    n_values: tuple
    replicates: int
    base_seed: int = 42
    trim: int = 10
    spec: CoeffSpec = CoeffSpec()
    burn_in: int = SimConfig.burn_in
    J: int | None = None
    estimate_params: str = "d"
    space: ParamSpace = field(default_factory=ParamSpace)

    def __post_init__(self):
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")
        if not 0 <= self.trim < self.replicates:
            raise DomainError("trim count must satisfy 0 <= k < N")
        if self.estimate_params not in ("d", "dca"):
            raise DomainError("estimate_params must be 'd' or 'dca'")
        if not self.n_values:
            raise DomainError("n_values must be nonempty")
        if len(set(self.n_values)) < len(self.n_values):
            raise DomainError(f"n_values {tuple(self.n_values)} repeats a "
                              "sample size")
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon {self.epsilon} must be in (0, inf)")
        SimConfig(n=1, burn_in=self.burn_in, J=self.J)     # checks both
        self.space.validate(self.theta0, self.spec)
        for n in self.n_values:             # m_of_n checks beta and n too
            if m_of_n(n, self.beta) + 1 < _MIN_WINDOW:
                raise WindowError(f"the window at n = {n} holds fewer than "
                                  f"{_MIN_WINDOW} points")


def case_study(case: int, n_values=(1000, 2500, 5000, 10_000),
               replicates: int = 1000, **overrides) -> StudyConfig:
    """Built-in study presets.

    Case 1: d = 0.1, c = 0.2, a = 1, epsilon = 0.01, beta = 0.799.
    Case 2: d = 0.2, c = 0.2, a = 1, epsilon = 0.01, beta = 0.599.
    An override of any :class:`StudyConfig` field replaces the preset's.
    """
    if case == 1:
        theta0, beta = Theta(0.1, 0.2, 1.0), 0.799
    elif case == 2:
        theta0, beta = Theta(0.2, 0.2, 1.0), 0.599
    else:
        raise DomainError("case must be 1 or 2")
    preset = dict(theta0=theta0, epsilon=0.01, beta=beta)
    return StudyConfig(**(preset | overrides), n_values=tuple(n_values),
                       replicates=replicates)


@dataclass(frozen=True)
class ReplicateRow:
    """One simulate/estimate run.

    ``evals`` counts the fit's loss evaluations; ``sim_s`` and ``fit_s``
    are the wall times of simulation and fit, left out of comparisons so
    that rows of identical runs compare equal.
    """

    n: int
    replicate: int
    seed: int
    d_hat: float
    c_hat: float
    a_hat: float
    loss: float
    converged: bool
    at_boundary: bool
    evals: int
    sim_s: float = field(compare=False)
    fit_s: float = field(compare=False)


@dataclass(frozen=True)
class StatRow:
    """Summary statistics of one vector of estimates."""

    count: int
    mean: float
    median: float
    s: float
    s_tilde: float
    s_scaled: float
    s_tilde_scaled: float
    skewness: float
    q_skewness: float


@dataclass(frozen=True)
class Summary:
    """Statistics on all values and with the k smallest removed (the
    ``trim_k`` of :func:`summarize`)."""

    all: StatRow
    trimmed: StatRow


@dataclass(frozen=True)
class McReport:
    """Per-replicate rows plus per-n summaries of the d estimates."""

    rows: tuple
    summaries: dict


def _stat_row(v: np.ndarray, n: int, beta: float) -> StatRow:
    med = float(np.median(v))
    s = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
    s_tilde = float(np.median(np.abs(v - med))) / MAD_SCALE
    scale = n ** (beta / 2.0)
    m2 = float(np.mean((v - v.mean()) ** 2))
    if m2 > 0.0:
        skew = float(np.mean((v - v.mean()) ** 3)) / m2 ** 1.5
    else:
        skew = math.nan
    q1, q2, q3 = (float(q) for q in np.quantile(v, [0.25, 0.5, 0.75]))
    qskew = ((q3 - q2) - (q2 - q1)) / (q3 - q1) if q3 > q1 else math.nan
    return StatRow(count=len(v), mean=float(v.mean()), median=med, s=s,
                   s_tilde=s_tilde, s_scaled=scale * s,
                   s_tilde_scaled=scale * s_tilde, skewness=skew,
                   q_skewness=qskew)


def summarize(values, n: int, beta: float, trim_k: int = 10) -> Summary:
    """Robust and non-robust summaries, untrimmed and with the k smallest
    values removed.

    ``s`` is the unbiased-denominator standard deviation; ``s_tilde`` the
    MAD divided by the 75% normal quantile; the scaled columns multiply by
    n**(beta/2); skewness is the biased central-moment ratio; quartile
    skewness uses linearly interpolated quantiles at positions 1 + (N-1)p.
    Undefined statistics (zero variance, equal quartiles) come back as nan.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if len(v) < 4:
        raise DomainError("need at least 4 values to summarize")
    if not 0 <= trim_k < len(v):
        raise DomainError("require 0 <= trim_k < len(values)")
    return Summary(all=_stat_row(v, n, beta),
                   trimmed=_stat_row(v[trim_k:], n, beta))


def normal_plot_data(values) -> np.ndarray:
    """Pairs (Phi^-1((i - 0.5)/N), v_(i)) for a normal probability plot."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    if n < 2:
        raise DomainError("need at least 2 values")
    from statistics import NormalDist
    inv_cdf = NormalDist().inv_cdf
    q = np.array([inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
    return np.stack([q, v], axis=1)


def acf(x, max_lag: int, on_squares: bool = False) -> np.ndarray:
    """Sample autocorrelation of x (or x^2) at lags 0..max_lag.

    Global mean, denominator-n convention: rho(k) = sum (y_t - ybar)
    (y_{t+k} - ybar) / sum (y_t - ybar)^2.  A zero-variance input yields
    an all-nan vector.
    """
    x = np.asarray(x, dtype=float)
    max_lag = int(max_lag)
    if max_lag < 0 or max_lag >= len(x):
        raise DomainError("require 0 <= max_lag < len(x)")
    y = x * x if on_squares else x
    y = y - y.mean()
    denom = float(y @ y)
    out = np.empty(max_lag + 1)
    if denom == 0.0:
        out.fill(math.nan)
        return out
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(y[k:] @ y[:-k]) / denom
    return out


def _run_replicate(cfg: StudyConfig, n: int, r: int) -> ReplicateRow:
    seed = derive_seed(cfg.base_seed, r)
    sim = SimConfig(n=n, burn_in=cfg.burn_in, J=cfg.J, seed=seed)
    t0 = time.perf_counter()
    sample = simulate(cfg.spec, cfg.theta0, sim, space=cfg.space)
    t1 = time.perf_counter()
    lspec = LossSpec("trunc", cfg.epsilon, beta=cfg.beta)
    fix = None
    if cfg.estimate_params == "d":
        fix = {"c": cfg.theta0.c, "a": cfg.theta0.a}
    res = estimate(lspec, cfg.spec, sample.x_obs, space=cfg.space, fix=fix)
    t2 = time.perf_counter()
    th = res.theta_hat
    return ReplicateRow(n=n, replicate=r, seed=seed, d_hat=th.d, c_hat=th.c,
                        a_hat=th.a, loss=res.loss_at_opt,
                        converged=res.converged, at_boundary=res.at_boundary,
                        evals=res.evaluations, sim_s=t1 - t0, fit_s=t2 - t1)


# replicates a worker process takes from the pool at a time
_CHUNKSIZE = 8


def run_study(cfg: StudyConfig, workers: int = 1) -> McReport:
    """Run the full study: N replicates per sample size, then summarize.

    Replicate r always uses the seed derived from (base_seed, r), so the
    report is identical whether replicates run serially or on any number
    of workers; rows are emitted in (n, replicate) order either way.
    Workers take the replicates in chunks of ``_CHUNKSIZE``, and a pool
    starts all its processes at once, so no more workers start than there
    are chunks; a study of one chunk runs serially.
    """
    if workers < 1:
        raise DomainError(f"workers {workers} must be >= 1")
    cfgs, ns, rs = zip(*((cfg, n, r) for n in sorted(cfg.n_values)
                         for r in range(cfg.replicates)))
    workers = min(workers, -(-len(ns) // _CHUNKSIZE))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_replicate, cfgs, ns, rs,
                                 chunksize=_CHUNKSIZE))
    else:
        rows = list(map(_run_replicate, cfgs, ns, rs))
    summaries = {}
    for n in cfg.n_values:
        d_hats = [row.d_hat for row in rows if row.n == n]
        # summaries need at least 4 estimates; tiny studies keep rows only
        if len(d_hats) >= 4:
            summaries[n] = summarize(d_hats, n, cfg.beta, trim_k=cfg.trim)
        else:
            summaries[n] = None
    return McReport(rows=tuple(rows), summaries=summaries)
