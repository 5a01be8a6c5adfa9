"""Epsilon-regularized pseudo-likelihood losses for LARCH processes.

The per-observation loss
l_t = (x_t^2 + eps) / (sigma_t^2(theta) + eps) + ln(sigma_t^2(theta) + eps)
comes in two variants, which differ only in the past sigma_t(theta) is
reconstructed from:

* ``"full"``  : the sample's stored path (burn-in included), truncated at
  J lags;
* ``"trunc"`` : the observed past x_1..x_{t-1} only, J = n - 1.

Both read a lag that reaches before the first step of their path as zero:
that is the empty past the simulator starts from, so "trunc" is the
infinite-past sum with the unobserved past set to zero, and "full" on a
burn-in shorter than J reads the zeros the simulator read there.

Both average the last floor(n^beta) points t = n - m(n)..n, where
m(n) = floor(n^beta) - 1; beta = 1, like ``"full"`` without beta, averages
all n points, and ``"trunc"`` requires beta.

The analytic score and Hessian are exact derivatives of the loss in
theta = (d, c, a).  Every variant convolves the J + w - 1 history values
that reach its window of w points in one transform of at least J + w - 1
points; the transform of the data is cached so repeated evaluation on one
path (as in estimation or landscape sweeps) costs one kernel transform per
lag-sum row, and the kernel transforms of the last d are kept for the next
evaluator of the same transform length.  A :class:`PathEvaluator` given a
d-interval also tabulates the lag sums in Chebyshev form over that
interval, so an evaluation inside it, score and Hessian included, costs a
few K x w products instead of transforms: the kernel j**(d-1), like the
FARIMA weights divided by d, is entire in d, so the series converges
geometrically and its term-by-term derivatives give the d-derivative rows
(Trefethen, *Approximation Theory and Approximation Practice*, ch. 8).
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import CoeffSpec, Theta, _scaled, _unit_rows
from .errors import DomainError, NumericError, WindowError
from .simulate import Sample

__all__ = ["LossSpec", "LossEval", "m_of_n", "loss", "landscape",
           "PathEvaluator"]

_VARIANTS = ("full", "trunc")

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
# derivatives (zero-padded to K rows), shared by every table.  T_m' has
# coefficient 2m on T_j for j < m with m - j odd (half that on T_0), so the
# maps hold integers and halves and are exact in doubles.
_CHEB_ANGLES = np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES
_CHEB_COS = np.cos(np.outer(np.arange(_CHEB_NODES), _CHEB_ANGLES))
_j, _m = np.indices((_CHEB_NODES, _CHEB_NODES))
_D1 = np.where((_m > _j) & ((_m - _j) % 2 == 1), 2.0 * _m, 0.0)
_D1[0] /= 2
_CHEB_DER = np.stack([np.eye(_CHEB_NODES), _D1, _D1 @ _D1])


def _fft_size(m: int) -> int:
    """Smallest transform length of the form 2^k, 3 * 2^k or 5 * 2^k that
    is at least m."""
    return min(f << (-(-m // f) - 1).bit_length() for f in (1, 3, 5))


@functools.lru_cache(maxsize=1)
def _kernel_spectra(family: str, d: float, J: int, derivatives: int,
                    L: int) -> np.ndarray:
    """Length-L transforms of the unit-weight rows of orders
    0..derivatives (:func:`larchpmle.coeffs._unit_rows`), read-only.  The
    last request is kept, so evaluators of one (family, d, J, L), such as
    the pieces of a sandwich path, transform the kernel once."""
    spectra = np.fft.rfft(_unit_rows(family, d, J, derivatives), L)
    spectra.flags.writeable = False
    return spectra


@dataclass(frozen=True)
class LossSpec:
    """Loss variant, regularization constant, window and truncation.

    ``epsilon`` must be positive for estimation; zero is tolerated only for
    exploratory landscape evaluation.  ``beta`` in (0, 1] windows either
    variant (see the module docstring); ``J`` overrides the history
    truncation of ``"full"``, the only variant that reads a stored history.
    A field the variant cannot use is refused.
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
        # "full" without beta averages all n points, as beta = 1 does
        beta = (1.0 if self.beta is None and self.variant == "full"
                else self.beta)
        if beta is None or not 0.0 < beta <= 1.0:
            raise DomainError(f"{self.variant} variant: beta = {self.beta} "
                              f"is not in (0, 1]")
        if self.J is not None and (self.variant != "full" or self.J < 1):
            raise DomainError(f"truncation order J = {self.J} must be >= 1 "
                              f"and is read by the full variant only")


@dataclass(frozen=True)
class LossEval:
    """Loss value with analytic score and Hessian over the used window."""

    value: float
    score: np.ndarray
    hessian: np.ndarray | None


def m_of_n(n: int, beta: float) -> int:
    """Window parameter m(n) = floor(n^beta) - 1.

    A loss with beta then averages the m(n) + 1 = floor(n^beta) points
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


class PathEvaluator:
    """Evaluates one loss variant repeatedly on a fixed data path.

    Every variant sums J lags of a path: the sample's stored one for
    ``"full"``, the observations with J = n - 1 for ``"trunc"``; a lag
    before the path's first step reads zero, the empty past.  The J + w - 1
    values that reach the window are transformed once, at the length
    L = :func:`_fft_size` (J + w - 1); each parameter point then costs one
    (value only) to three (score/Hessian) kernel transforms and as many
    inverse ones.  The kernel transforms of the last (family, d, J, L) are
    kept (:func:`_kernel_spectra`), so evaluators of one length on one d,
    such as the pieces of the sandwich's path, transform the kernel once.
    Both families support the score and the Hessian: the rows convolved
    are :func:`larchpmle.coeffs._unit_rows`, combined into the weights'
    d-derivatives by :func:`larchpmle.coeffs._scaled`.

    The window is the last floor(n^beta) points, t = ``t_first``..n with
    ``w`` points, or all n points for ``"full"`` without beta.  Only the
    values that reach the window, its points and their J lags (stored
    burn-in steps t <= 0 included), are checked to be finite, so
    construction costs O(J + w) and not O(n); a non-finite one raises
    :class:`NumericError` naming its step.

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
                 d_range: tuple | None = None):
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
        # "trunc" sums J = n - 1 >= 1 lags of the observations
        if n < (1 if lspec.variant == "full" else 2):
            raise WindowError(f"too few observations: {n}")
        self.n = n

        self.t_first = 1 if lspec.beta is None else n - m_of_n(n, lspec.beta)
        self.w = n - self.t_first + 1

        # path[first] is t = 1
        if lspec.variant == "full":
            self.J = lspec.J if lspec.J is not None else data.config.J
            path, first = data.x, data.config.burn_in
        else:
            self.J = n - 1
            path, first = x_obs, 0
        # only the J + w - 1 values from the first window point's J-th lag
        # to the last point's first lag reach the window, zeros before the
        # path's first step; they and the window's last point,
        # t = t_first - J..n (t <= 0: the burn-in and the empty past), must
        # be finite
        start = first + self.t_first - 1 - self.J
        series = path[max(start, 0): first + n - 1]
        if start < 0:
            series = np.concatenate([np.zeros(-start), series])
        self.xw = x_obs[self.t_first - 1:]
        for values, t in ((series, self.t_first - self.J), (self.xw[-1:], n)):
            finite = np.isfinite(values)
            if not finite.all():
                raise NumericError(f"non-finite observation at t = "
                                   f"{t + int(np.argmin(finite))}")
        self._nfft = _fft_size(len(series))
        self._spectrum = np.fft.rfft(series, self._nfft)

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
                values[k] = self._convolve(_kernel_spectra(
                    spec.family, d, self.J, 0, self._nfft)[0])
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

    def _convolve(self, kernel_spectrum: np.ndarray) -> np.ndarray:
        """Window slice of sum_{j} kernel_j x_{t-j} for t in the window,
        given the kernel's length-L transform: outputs J - 1 .. J + w - 2
        of the circular convolution, free of wrap-around as L >= J + w - 1."""
        # the kernel spectrum is a cached array, not a temporary, so numpy
        # never writes this product into it and the operand order is fixed
        conv = np.fft.irfft(self._spectrum * kernel_spectrum, self._nfft)
        return conv[self.J - 1: self.J - 1 + self.w]

    def lag_sums(self, d: float, derivatives: int):
        """Window lag sums (v0, v1, v2) of the data against the unit-scale
        kernel b_j / c at exponent d and its first and second
        d-derivatives; entries beyond ``derivatives`` are None.  Requests
        with d inside ``d_range`` come from the Chebyshev table."""
        if derivatives not in (0, 1, 2):
            raise DomainError(f"derivatives = {derivatives!r} must be 0, 1 "
                              f"or 2")
        family = self.spec.family
        if self.d_range is not None and self.d_range[0] <= d <= self.d_range[1]:
            rows = self._interpolate(d, derivatives)
        else:
            spectra = _kernel_spectra(family, d, self.J, derivatives,
                                      self._nfft)
            rows = np.empty((derivatives + 1, self.w))
            for k in range(derivatives + 1):
                rows[k] = self._convolve(spectra[k])
        return tuple(_scaled(family, d, rows)) + (None,) * (2 - derivatives)

    def __call__(self, theta: Theta, derivatives: int = 2) -> LossEval:
        return self.evaluate(theta, self.lag_sums(theta.d, derivatives))

    def values(self, v0: np.ndarray, c, a) -> np.ndarray:
        """Loss values at the scale pairs (c_i, a_i), all sharing the lag
        sums ``v0`` of one d; a non-finite term raises NumericError."""
        eps = self.lspec.epsilon
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

    def evaluate(self, theta: Theta, sums) -> LossEval:
        """Loss at theta from the lag sums (v0, v1, v2) of theta.d, with
        the score when v1 is given and the Hessian when v2 is too."""
        v0, v1, v2 = sums
        value = float(self.values(v0, [theta.c], [theta.a])[0])
        if v1 is None:
            return LossEval(value, None, None)

        eps = self.lspec.epsilon
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
            return LossEval(value, score, None)

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
        return LossEval(value, score, h)


def loss(lspec: LossSpec, spec: CoeffSpec, theta: Theta, data,
         derivatives: int = 2) -> LossEval:
    """Evaluate the selected loss variant at theta on the given data.

    ``data`` is a plain series for the "trunc" variant or a
    :class:`Sample` (whose stored path, burn-in included, is the history)
    for "full".
    ``derivatives`` = 0, 1 or 2 selects value only, value + score, or
    value + score + Hessian.
    """
    return PathEvaluator(lspec, spec, data)(theta, derivatives=derivatives)


def landscape(lspec: LossSpec, spec: CoeffSpec, c: float, a: float, x,
              d_grid, eps_list) -> list:
    """Loss profile in d with c and a held fixed, one curve per epsilon.

    Returns rows (epsilon, d, value), epsilon outer; pure evaluation, no
    optimization.  Each epsilon evaluates with ``lspec`` at that epsilon,
    so ``lspec``'s own epsilon is not used; the lag sums of each d serve
    every epsilon.
    """
    d_grid = [float(d) for d in np.atleast_1d(d_grid)]
    evs = [PathEvaluator(replace(lspec, epsilon=float(e)), spec, x)
           for e in np.atleast_1d(eps_list)]
    if not d_grid or not evs:
        raise DomainError("d_grid and eps_list must be nonempty")
    by_d = []
    for d in d_grid:
        theta = Theta(d, c, a)
        sums = evs[0].lag_sums(d, 0)
        by_d.append([ev.evaluate(theta, sums).value for ev in evs])
    return [(ev.lspec.epsilon, d, values[i])
            for i, ev in enumerate(evs)
            for d, values in zip(d_grid, by_d)]
