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
theta = (d, c, a).  Lag sums are FFT convolutions sized to the averaged
window; the transform of the data is cached so repeated evaluation on one
path (as in estimation or landscape sweeps) costs one kernel transform per
lag-sum row.  A :class:`PathEvaluator` given a d-interval also tabulates
the lag sums in Chebyshev form over that interval, so an evaluation inside
it, score and Hessian included, costs a few K x w products instead of
transforms: the kernel j**(d-1), like the FARIMA weights divided by d, is
entire in d, so the series converges geometrically and its term-by-term
derivatives give the d-derivative rows (Trefethen, *Approximation Theory
and Approximation Practice*, ch. 8).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebder

from .coeffs import CoeffSpec, Theta, _scaled, _unit_rows, coeff_weights
from .errors import DomainError, HistoryError, NumericError, WindowError
from .simulate import Sample

__all__ = ["LossSpec", "LossEval", "m_of_n", "sigma_bar", "sigma_full",
           "loss", "landscape", "PathEvaluator"]

_VARIANTS = ("full", "bar", "trunc")

# Chebyshev nodes of the lag-sum table, and how far (as a fraction of the
# served d-interval) the node interval reaches beyond each end of it: the
# derivative of an interpolant amplifies the rounding of its node values
# about K^2-fold at the ends of its interval but only about K-fold inside.
# With 20 nodes and 5% the table agrees with the FFT path on [0, 0.45] to
# 1e-12 (normwise relative) in the value and first-derivative rows (2e-12
# for FARIMA's, whose weights carry the rounding of a running product) and
# to 1e-9 in the second-derivative rows for n up to 10^5, see
# tests/test_likelihood.py.
_CHEB_NODES = 20
_CHEB_REACH = 0.05
# node angles, the cosine transform from node values to coefficients, and
# the maps from coefficients on [-1, 1] to those of the first and second
# derivatives (zero-padded to K rows), shared by every table
_CHEB_ANGLES = np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES
_CHEB_COS = np.cos(np.outer(np.arange(_CHEB_NODES), _CHEB_ANGLES))
_CHEB_DER = np.stack([np.eye(_CHEB_NODES)] + [
    np.vstack([chebder(np.eye(_CHEB_NODES), m),
               np.zeros((m, _CHEB_NODES))]) for m in (1, 2)])


def _fft_size(m: int) -> int:
    """Smallest transform length of the form 2^k, 3 * 2^k or 5 * 2^k that
    is at least m."""
    return min(f << (-(-m // f) - 1).bit_length() for f in (1, 3, 5))


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
    """Conditional sd from the extended history, truncated at J lags
    (by default the sample's simulation truncation).

    Uses the sample's pre-sample observations; requires burn_in + t - 1 >= J
    so that all J lags exist.  ``t`` is 1-based within the analysis window.
    """
    if J is None:
        J = sample.config.J
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

    The data-side FFT is computed once, at the smallest transform length
    whose circular convolution leaves the window unaliased; each parameter
    point then costs one (value only) to three (score/Hessian) kernel
    transforms.  Both families support the score and the Hessian: the rows
    convolved are :func:`larchpmle.coeffs._unit_rows`, combined into the
    weights' d-derivatives by :func:`larchpmle.coeffs._scaled`.

    ``window`` overrides the averaged t-range (1-based, inclusive), e.g. to
    evaluate the full-history loss on a truncated window when comparing it
    against the observed-past loss.

    ``d_range = (lo, hi)`` builds, at construction, a table of the lag sums
    in Chebyshev form: one kernel transform at each of 20 Chebyshev nodes
    on [lo, hi] widened by 5% at each end, kept as a 20 x w coefficient
    table of the unit-weight sums (for ``"farima"`` the sums of
    pi_j(d) / d, which keep their relative accuracy as d -> 0).  An
    evaluation with lo <= d <= hi then sums the series and its term-by-term
    d-derivatives instead of running transforms, for every derivative order
    and both families; d outside the interval uses the FFT path, which the
    tests hold the table to, FARIMA second-derivative rows included.  The
    table pays off only when many points are taken on one path, as in a
    fit with d free; without ``d_range`` no table is built.
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
            self.J = lspec.J if lspec.J is not None else sample.config.J
            start = sample.first_retained + self.t_first - 1 - self.J
            if start < 0:
                raise HistoryError(
                    f"full variant needs burn-in >= {self.J - self.t_first + 1}")
            # only the J + w - 1 values from the first window point's J-th
            # lag to the last point's first lag reach the window
            series = sample.x[start: start + self.J + self.w - 1]
            self.off = self.J - 1
        else:
            self.J = n - 1
            series = x_obs
            self.off = self.t_first - 2          # -1 marks the empty t = 1 sum

        self.xw = x_obs[self.t_first - 1: self.t_last]
        # conv indices max(off, 0) .. off + w - 1 are used; a transform of
        # this length neither wraps the convolution's tail onto them nor
        # wraps them around
        self.nfft = _fft_size(max(len(series) + self.J - 1 - max(self.off, 0),
                                  self.off + self.w))
        self.rfft_series = np.fft.rfft(series, self.nfft)

        self.d_range = None
        if d_range is not None:
            lo, hi = (float(v) for v in d_range)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"d_range {d_range} must be finite with "
                                  f"lo < hi")
            K = _CHEB_NODES
            reach = _CHEB_REACH * (hi - lo)
            self._cheb_span = (lo - reach, hi + reach)
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo) + reach
            values = np.empty((K, self.w))
            for k, d in enumerate(mid + half * np.cos(_CHEB_ANGLES)):
                values[k] = self._convolve(
                    _unit_rows(spec.family, d, self.J, 0)[0])
            # coefficient m = (2/K) sum_k values_k cos(m angle_k), the
            # constant term halved
            self._cheb = (2.0 / K) * (_CHEB_COS @ values)
            self._cheb[0] *= 0.5
            # d-derivatives of the series: each order scales by 1 / half
            self._cheb_der = _CHEB_DER / half ** np.arange(3)[:, None, None]
            self.d_range = (lo, hi)

    def _interpolate(self, d: float, derivatives: int) -> np.ndarray:
        """Lag sums of the unit weights and their d-derivatives, orders
        0..derivatives, at d from the Chebyshev table, one row each."""
        lo, hi = self._cheb_span
        x = (2.0 * d - lo - hi) / (hi - lo)
        T = np.empty(_CHEB_NODES)
        T[0], T[1] = 1.0, x
        for m in range(2, _CHEB_NODES):
            T[m] = 2.0 * x * T[m - 1] - T[m - 2]
        # basis rows T(x), T'(x), T''(x) against the coefficients
        return (T @ self._cheb_der[:derivatives + 1]) @ self._cheb

    def _convolve(self, kernel: np.ndarray) -> np.ndarray:
        """Window slice of sum_{j} kernel_j x_{t-j} for t in the window."""
        conv = np.fft.irfft(self.rfft_series * np.fft.rfft(kernel, self.nfft),
                            self.nfft)
        if self.off < 0:                          # t = 1 has an empty lag sum
            return np.append(0.0, conv[:self.w - 1])
        return conv[self.off: self.off + self.w]

    def lag_sums(self, theta: Theta, derivatives: int):
        """Window lag sums (v0, v1, v2) of the data against the unit-scale
        kernel b_j / c and its first and second d-derivatives; entries
        beyond ``derivatives`` are None.  Requests with d inside
        ``d_range`` come from the Chebyshev table."""
        d, family = theta.d, self.spec.family
        if self.d_range is not None and self.d_range[0] <= d <= self.d_range[1]:
            rows = self._interpolate(d, derivatives)
        else:
            unit = _unit_rows(family, d, self.J, derivatives)
            rows = np.empty((derivatives + 1, self.w))
            for k in range(derivatives + 1):
                rows[k] = self._convolve(unit[k])
        return tuple(_scaled(family, d, rows)) + (None,) * (2 - derivatives)

    def __call__(self, theta: Theta, epsilon: float | None = None,
                 derivatives: int = 2) -> LossEval:
        return self.evaluate(theta, self.lag_sums(theta, derivatives), epsilon)

    def values(self, v0: np.ndarray, c, a, epsilon: float | None = None
               ) -> np.ndarray:
        """Loss values at the scale pairs (c_i, a_i), all sharing the lag
        sums ``v0`` of one d; a non-finite term raises NumericError."""
        eps = self.lspec.epsilon if epsilon is None else float(epsilon)
        # in place: the (pairs, w) block is the largest array of a fit
        s2e = np.multiply.outer(np.asarray(c, dtype=float), v0)
        s2e += np.asarray(a, dtype=float)[:, None]
        np.square(s2e, out=s2e)
        s2e += eps
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log(s2e)
            terms += np.divide(self.xw ** 2 + eps, s2e, out=s2e)
        if not np.all(np.isfinite(terms)):
            bad = np.flatnonzero(~np.all(np.isfinite(terms), axis=0))[0]
            raise NumericError(
                f"non-finite loss term at t = {self.t_first + int(bad)}")
        return terms.sum(axis=1) / self.w

    def evaluate(self, theta: Theta, sums, epsilon: float | None = None
                 ) -> LossEval:
        """Loss at theta from the lag sums (v0, v1, v2) of theta.d, with
        the score when v1 is given and the Hessian when v2 is too."""
        v0, v1, v2 = sums
        value = float(self.values(v0, [theta.c], [theta.a], epsilon)[0])
        t_range = (self.t_first, self.t_last)
        if v1 is None:
            return LossEval(value, None, None, t_range)

        eps = self.lspec.epsilon if epsilon is None else float(epsilon)
        c = theta.c
        sig = theta.a + c * v0
        s2e = sig * sig + eps
        r = (self.xw ** 2 + eps) / s2e
        # d sigma / d theta = (c v1, v0, 1)
        common = (1.0 - r) * 2.0 * sig / s2e
        score = np.array([c * (common @ v1), common @ v0,
                          common.sum()]) / self.w
        if not np.all(np.isfinite(score)):
            raise NumericError("non-finite score")
        if v2 is None:
            return LossEval(value, score, None, t_range)

        # Hessian: (A + B) sdot sdot^T + B sigma sddot, with
        # A = 4 sigma^2 / s2e^2 (2r - 1) and B = 2 (1 - r) / s2e.
        B = 2.0 * (1.0 - r) / s2e
        AB = 4.0 * sig * sig / s2e ** 2 * (2.0 * r - 1.0) + B
        Bs = B * sig
        ABv1, ABv0 = AB * v1, AB * v0
        h = np.empty((3, 3))
        h[0, 0] = c * c * (ABv1 @ v1) + c * (Bs @ v2)
        h[0, 1] = c * (ABv1 @ v0) + Bs @ v1
        h[0, 2] = c * ABv1.sum()
        h[1, 1] = ABv0 @ v0
        h[1, 2] = ABv0.sum()
        h[2, 2] = AB.sum()
        h[1, 0], h[2, 0], h[2, 1] = h[0, 1], h[0, 2], h[1, 2]
        h /= self.w
        if not np.all(np.isfinite(h)):
            raise NumericError("non-finite Hessian")
        return LossEval(value, score, h, t_range)


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

    Returns rows (epsilon, d, value), epsilon outer; pure evaluation, no
    optimization.  The lag sums of each d serve every epsilon.
    """
    d_grid = [float(d) for d in np.atleast_1d(d_grid)]
    eps_list = [float(e) for e in np.atleast_1d(eps_list)]
    if not d_grid or not eps_list:
        raise DomainError("d_grid and eps_list must be nonempty")
    if not all(0.0 <= e < math.inf for e in eps_list):
        raise DomainError(f"epsilons {eps_list} must be >= 0 and finite")
    ev = PathEvaluator(lspec, spec, x)
    by_d = []
    for d in d_grid:
        theta = Theta(d, c, a)
        sums = ev.lag_sums(theta, 0)
        by_d.append([ev.evaluate(theta, sums, eps).value for eps in eps_list])
    return [(eps, d, values[i])
            for i, eps in enumerate(eps_list)
            for d, values in zip(d_grid, by_d)]
