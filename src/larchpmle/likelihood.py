"""Epsilon-regularized pseudo-likelihood losses for LARCH processes.

Three variants of the per-observation loss
l_t = (x_t^2 + eps) / (sigma_t^2(theta) + eps) + ln(sigma_t^2(theta) + eps)
are provided, differing in how sigma_t(theta) is reconstructed and which
time points are averaged:

* ``"full"``  : sigma_t from the extended history (pre-sample included),
  truncated at J lags; averages t = 1..n.
* ``"bar"``   : sigma_t from the observed past x_1..x_{t-1} only;
  averages t = 1..n.
* ``"trunc"`` : same sigma as "bar" but averages only the last
  floor(n^beta) points t = n - m(n)..n, where m(n) = floor(n^beta) - 1.

The analytic score and Hessian are exact derivatives of the loss in
theta = (d, c, a).  Lag sums are FFT convolutions; the transform of the
data is cached so repeated evaluation on one path (as in estimation or
landscape sweeps) costs one kernel transform per point.  A
:class:`PathEvaluator` given a d-interval also tabulates the value lag
sums in Chebyshev form over that interval, so a value-only evaluation
inside it costs a K x w product instead of a transform (the kernel
j**(d-1), like the FARIMA weights, is entire in d, so the series
converges geometrically; Trefethen, *Approximation Theory and
Approximation Practice*, ch. 8).
"""

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffSpec, Theta, coeff_weights, deriv_weights
from .errors import (
    DomainError,
    HistoryError,
    NumericError,
    UnsupportedError,
    WindowError,
)
from .simulate import Sample

__all__ = ["LossSpec", "LossEval", "m_of_n", "sigma_bar", "sigma_full",
           "loss", "landscape", "PathEvaluator"]

_VARIANTS = ("full", "bar", "trunc")

# Chebyshev nodes of the value lag-sum table.  With 16 nodes on [0, 0.45]
# the table agrees with the FFT path to 1e-12 (normwise relative) at
# n = 10^4 for both weight families, see tests/test_likelihood.py.
_CHEB_NODES = 16


@dataclass(frozen=True)
class LossSpec:
    """Loss variant, regularization constant, and window/truncation knobs.

    ``epsilon`` must be positive for estimation; zero is tolerated only for
    exploratory landscape evaluation.  ``beta`` selects the truncated
    window (``"trunc"`` only); ``J`` overrides the history truncation of
    the ``"full"`` variant.
    """

    variant: str = "trunc"
    epsilon: float = 0.01
    beta: float | None = None
    J: int | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown loss variant {self.variant!r}")
        if not math.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise DomainError("epsilon must be >= 0 and finite")
        if self.variant == "trunc":
            if self.beta is None or not 0.0 < self.beta <= 1.0:
                raise DomainError("trunc variant requires beta in (0, 1]")
        if self.J is not None and self.J < 1:
            raise DomainError("truncation order J must be >= 1")


@dataclass(frozen=True)
class LossEval:
    """Loss value with analytic score and Hessian over the used window."""

    value: float
    score: np.ndarray
    hessian: np.ndarray | None
    t_range: tuple


def m_of_n(n: int, beta: float) -> int:
    """Window parameter m(n) = floor(n^beta) - 1.

    The truncated loss then averages the m(n) + 1 = floor(n^beta) points
    t = n - m(n)..n.
    """
    n = int(n)
    if n < 2:
        raise DomainError("n must be >= 2")
    if not 0.0 < beta <= 1.0:
        raise DomainError("beta must be in (0, 1]")
    m = math.floor(n ** beta) - 1
    if m < 1:
        raise WindowError(f"degenerate window: floor(n^beta) - 1 = {m} < 1")
    return m


def sigma_bar(spec: CoeffSpec, theta: Theta, x, t: int) -> float:
    """Conditional sd proxy from the observed past: a + sum_{j<t} b_j x_{t-j}.

    ``t`` is 1-based; t = len(x) + 1 gives the one-step-ahead prediction.
    """
    x = np.asarray(x, dtype=float)
    t = int(t)
    if t < 1 or t > len(x) + 1:
        raise DomainError(f"t = {t} outside 1..len(x)+1")
    k = t - 1
    if k == 0:
        return theta.a
    b_rev = coeff_weights(spec, theta, k)[::-1].copy()
    return theta.a + float(b_rev @ x[t - 1 - k: t - 1])


def sigma_full(spec: CoeffSpec, theta: Theta, sample: Sample, t: int,
               J: int | None = None) -> float:
    """Conditional sd from the extended history, truncated at J lags.

    Uses the sample's pre-sample observations; requires burn_in + t - 1 >= J
    so that all J lags exist.  ``t`` is 1-based within the analysis window.
    """
    if J is None:
        J = sample.config.J if sample.config.J is not None else sample.spec.J
    t = int(t)
    if t < 1 or t > sample.n:
        raise DomainError(f"t = {t} outside 1..n")
    avail = sample.first_retained + t - 1
    if avail < J:
        raise HistoryError(
            f"need {J} past values at t = {t} but only {avail} available")
    b_rev = coeff_weights(spec, theta, J)[::-1].copy()
    pos = sample.first_retained + t - 1
    return theta.a + float(b_rev @ sample.x[pos - J: pos])


class PathEvaluator:
    """Evaluates one loss variant repeatedly on a fixed data path.

    The data-side FFT is computed once; each parameter point then costs one
    (value only) to three (score/Hessian) kernel transforms.  Only the
    ``"power"`` family supports Hessian evaluation; ``"farima"`` supports
    derivatives up to the score.

    ``window`` overrides the averaged t-range (1-based, inclusive), e.g. to
    evaluate the full-history loss on a truncated window when comparing it
    against the observed-past loss.

    ``d_range = (lo, hi)`` builds, at construction, a table of the value
    lag sums in Chebyshev form on [lo, hi]: one kernel transform at each of
    16 Chebyshev nodes, kept as a 16 x w coefficient table.  A value-only
    evaluation with lo <= d <= hi then sums the series (a 16-vector times
    the table) instead of running a transform; derivative evaluations and
    d outside the interval use the FFT path.  The table pays off only when
    many values are taken on one path, as in a fit with d free; without
    ``d_range`` no table is built.
    """

    def __init__(self, lspec: LossSpec, spec: CoeffSpec, data,
                 window: tuple | None = None, d_range: tuple | None = None):
        self.lspec = lspec
        self.spec = spec
        if isinstance(data, Sample):
            x_obs = data.x_obs
        else:
            x_obs = np.asarray(data, dtype=float)
            if x_obs.ndim != 1:
                raise DomainError("data series must be one-dimensional")
            if lspec.variant == "full":
                raise DomainError("full variant requires a Sample with history")
        n = len(x_obs)
        if n < 2:
            raise WindowError("need at least two observations")
        if not np.all(np.isfinite(x_obs)):
            bad = int(np.flatnonzero(~np.isfinite(x_obs))[0]) + 1
            raise NumericError(f"non-finite observation at t = {bad}")
        self.n = n

        if window is not None:
            self.t_first, self.t_last = int(window[0]), int(window[1])
            if not 1 <= self.t_first <= self.t_last <= n:
                raise DomainError(f"window {window} outside 1..{n}")
        elif lspec.variant == "trunc":
            m = m_of_n(n, lspec.beta)
            self.t_first, self.t_last = n - m, n
        else:
            self.t_first, self.t_last = 1, n
        self.w = self.t_last - self.t_first + 1

        if lspec.variant == "full":
            sample = data
            self.J = (lspec.J if lspec.J is not None
                      else (sample.config.J if sample.config.J is not None
                            else spec.J))
            if sample.first_retained + self.t_first - 1 < self.J:
                raise HistoryError(
                    f"full variant needs burn-in >= {self.J - self.t_first + 1}")
            series = sample.x
            # conv index of window point t is (first_retained + t - 2)
            self.off = sample.first_retained + self.t_first - 2
        else:
            self.J = n - 1
            series = x_obs
            self.off = self.t_first - 2          # -1 marks the empty t = 1 sum

        self.xw = x_obs[self.t_first - 1: self.t_last]
        nfft = 1 << (len(series) + self.J).bit_length()
        self.nfft = nfft
        self.rfft_series = np.fft.rfft(series, nfft)
        self.logj = np.log(np.arange(1, self.J + 1, dtype=float))

        self.d_range = None
        if d_range is not None:
            lo, hi = (float(v) for v in d_range)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"d_range {d_range} must be finite with "
                                  f"lo < hi")
            angles = np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES
            nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(angles)
            values = np.empty((_CHEB_NODES, self.w))
            for k, d in enumerate(nodes):
                values[k] = self._convolve(self._kernel(d))
            # coefficient m = (2/K) sum_k values_k cos(m angle_k), the
            # constant term halved
            cosines = np.cos(np.outer(np.arange(_CHEB_NODES), angles))
            self._cheb = (2.0 / _CHEB_NODES) * (cosines @ values)
            self._cheb[0] *= 0.5
            self.d_range = (lo, hi)

    def _kernel(self, d: float) -> np.ndarray:
        """Unit-scale kernel b_j / c, j = 1..J, at exponent d."""
        if self.spec.family == "power":
            return np.exp((d - 1.0) * self.logj)
        return coeff_weights(self.spec, Theta(d, 1.0, 1.0), self.J)

    def _interpolate(self, d: float) -> np.ndarray:
        """Value lag sums at d from the Chebyshev table (three-term
        recurrence for T_0..T_{K-1} at the mapped point)."""
        lo, hi = self.d_range
        x = (2.0 * d - lo - hi) / (hi - lo)
        T = np.empty(_CHEB_NODES)
        T[0], T[1] = 1.0, x
        for m in range(2, _CHEB_NODES):
            T[m] = 2.0 * x * T[m - 1] - T[m - 2]
        return T @ self._cheb

    def _convolve(self, kernel: np.ndarray) -> np.ndarray:
        """Window slice of sum_{j} kernel_j x_{t-j} for t in the window."""
        conv = np.fft.irfft(self.rfft_series * np.fft.rfft(kernel, self.nfft),
                            self.nfft)
        out = np.empty(self.w)
        lo = self.off
        if lo < 0:                                # t = 1 has an empty lag sum
            out[0] = 0.0
            out[1:] = conv[0: self.w - 1]
        else:
            out[:] = conv[lo: lo + self.w]
        return out

    def lag_sums(self, theta: Theta, derivatives: int):
        """Window lag sums (v0, v1, v2) of the data against the unit-scale
        kernel b_j / c and its first and second d-derivatives; entries
        beyond ``derivatives`` are None.  Value-only requests inside
        ``d_range`` come from the Chebyshev table."""
        if self.spec.family != "power" and derivatives >= 2:
            raise UnsupportedError(
                "farima loss Hessian needs second d-derivatives of the weights")
        if (derivatives == 0 and self.d_range is not None
                and self.d_range[0] <= theta.d <= self.d_range[1]):
            return self._interpolate(theta.d), None, None
        k0 = self._kernel(theta.d)
        v0 = self._convolve(k0)
        if derivatives == 0:
            return v0, None, None
        if self.spec.family == "power":
            v1 = self._convolve(self.logj * k0)
            if derivatives == 1:
                return v0, v1, None
            v2 = self._convolve(self.logj ** 2 * k0)
            return v0, v1, v2
        unit = Theta(theta.d, 1.0, theta.a)
        v1 = self._convolve(deriv_weights(self.spec, unit, self.J, order_d=1))
        return v0, v1, None

    def __call__(self, theta: Theta, epsilon: float | None = None,
                 derivatives: int = 2) -> LossEval:
        eps = self.lspec.epsilon if epsilon is None else float(epsilon)
        v0, v1, v2 = self.lag_sums(theta, derivatives)
        sig = theta.a + theta.c * v0
        s2e = sig * sig + eps
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (self.xw ** 2 + eps) / s2e + np.log(s2e)
        if not np.all(np.isfinite(terms)):
            bad = self.t_first + int(np.flatnonzero(~np.isfinite(terms))[0])
            raise NumericError(f"non-finite loss term at t = {bad}")
        value = math.fsum(terms) / self.w
        if derivatives == 0:
            return LossEval(value, None, None, (self.t_first, self.t_last))

        r = (self.xw ** 2 + eps) / s2e
        common = (1.0 - r) * 2.0 * sig / s2e
        sd_d = theta.c * v1
        score = np.array([
            math.fsum(common * sd_d),
            math.fsum(common * v0),
            math.fsum(common),
        ]) / self.w
        if not np.all(np.isfinite(score)):
            raise NumericError("non-finite score")
        if derivatives == 1:
            return LossEval(value, score, None, (self.t_first, self.t_last))

        # Hessian: (A + B) sdot sdot^T + B sigma sddot, with
        # A = 4 sigma^2 / s2e^2 (2r - 1) and B = 2 (1 - r) / s2e.
        A = 4.0 * sig * sig / s2e ** 2 * (2.0 * r - 1.0)
        B = 2.0 * (1.0 - r) / s2e
        AB = A + B
        Bs = B * sig
        h = np.empty((3, 3))
        h[0, 0] = math.fsum(AB * sd_d * sd_d) + math.fsum(Bs * theta.c * v2)
        h[0, 1] = math.fsum(AB * sd_d * v0) + math.fsum(Bs * v1)
        h[0, 2] = math.fsum(AB * sd_d)
        h[1, 1] = math.fsum(AB * v0 * v0)
        h[1, 2] = math.fsum(AB * v0)
        h[2, 2] = math.fsum(AB)
        h[1, 0], h[2, 0], h[2, 1] = h[0, 1], h[0, 2], h[1, 2]
        h /= self.w
        if not np.all(np.isfinite(h)):
            raise NumericError("non-finite Hessian")
        return LossEval(value, score, h, (self.t_first, self.t_last))


def loss(lspec: LossSpec, spec: CoeffSpec, theta: Theta, data,
         derivatives: int = 2) -> LossEval:
    """Evaluate the selected loss variant at theta on the given data.

    ``data`` is a plain series for the "bar"/"trunc" variants or a
    :class:`Sample` (whose pre-sample supplies the history) for "full".
    ``derivatives`` = 0, 1 or 2 selects value only, value + score, or
    value + score + Hessian.
    """
    return PathEvaluator(lspec, spec, data)(theta, derivatives=derivatives)


def landscape(lspec: LossSpec, spec: CoeffSpec, c: float, a: float, x,
              d_grid, eps_list) -> list:
    """Loss profile in d with c and a held fixed, one curve per epsilon.

    Returns rows (epsilon, d, value); pure evaluation, no optimization.
    """
    d_grid = [float(d) for d in np.atleast_1d(d_grid)]
    eps_list = [float(e) for e in np.atleast_1d(eps_list)]
    if not d_grid or not eps_list:
        raise DomainError("d_grid and eps_list must be nonempty")
    ev = PathEvaluator(lspec, spec, x)
    rows = []
    for eps in eps_list:
        for d in d_grid:
            val = ev(Theta(d, c, a), epsilon=eps, derivatives=0).value
            rows.append((eps, d, val))
    return rows
