"""Coefficient families for linear-ARCH volatility recursions.

The conditional standard deviation is sigma_t = a + sum_j b_j(c, d) X_{t-j}.
Two families of lag weights are supported:

* ``"power"``  : b_j = c * j**(d - 1), the hyperbolically decaying family.
* ``"farima"`` : b_j = c * pi_j(d), where pi_j are the expansion
  coefficients of (1 - B)**(-d) - 1 (fractional-differencing weights).

Both families' weights and d-derivatives are formed here alone, as
b_j = c s(d) r_j(d) (:func:`_unit_rows`, :func:`_scaled`), for the weight
vectors below and the likelihood's lag sums alike.

This module also provides the parameter box used for estimation, zeta-type
tail sums, coefficient p-norms, and checkers for the moment conditions that
guarantee finite third/higher moments of the process.  The Hurwitz zeta
behind the tail sums is a port of the cephes routine that
``scipy.special.zeta`` wraps (:func:`_hurwitz_zeta`), so the package needs
numpy alone at run time.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    MissingMomentError,
    UnsupportedError,
    ValidationError,
)

__all__ = [
    "Theta",
    "ParamSpace",
    "CoeffSpec",
    "NoiseMoments",
    "ConditionCheck",
    "MomentReport",
    "ZETA_M3",
    "coeff_weights",
    "zeta_tail",
    "norm_p",
    "tail_variance",
    "sum_sq",
    "gaussian_moments",
    "check_moment_conditions",
]

# Positive root of 3 z^2 - 3 z - 1 = 0, used by the third-moment condition.
ZETA_M3 = (3.0 + math.sqrt(21.0)) / 6.0

# Slack of ParamSpace.contains at every bound (relative as well at c_max).
_CONTAINS_TOL = 1e-12

# Lag count at which numerically summed farima norms switch to the
# asymptotic tail correction.
_FARIMA_NORM_TERMS = 200_000

# Relative size below which the Hurwitz zeta's sums stop (cephes MACHEP).
_ZETA_TOL = 1.11022302462515654042e-16
# Denominators of the Euler-Maclaurin terms, (2k)! / B_2k for k = 1..12.
_ZETA_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
            -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
            1.1646782814350067249e14, -4.5979787224074726105e15,
            1.8152105401943546773e17, -7.1661652561756670113e18)


@dataclass(frozen=True)
class Theta:
    """Parameter triple: long-memory exponent d, weight scale c, intercept a."""

    d: float
    c: float
    a: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.d, self.c, self.a)):
            raise ValidationError(f"theta must be finite, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.d, self.c, self.a], dtype=float)


@dataclass(frozen=True)
class CoeffSpec:
    """Coefficient family selector plus default lag-truncation order J."""

    family: str = "power"
    J: int = 2000

    def __post_init__(self):
        if self.family not in ("power", "farima"):
            raise DomainError(f"unknown coefficient family {self.family!r}")
        if self.J < 1:
            raise DomainError("truncation order J must be >= 1")


@dataclass(frozen=True)
class ParamSpace:
    """Box of admissible parameters.

    d in [0, d_u] with d_u < 1/2, c in [0, c_max(d)] where c_max keeps
    sum(b_j^2) <= C^2 < 1 for the weight family of a :class:`CoeffSpec`,
    and a in [a_d, a_u].
    """

    d_u: float = 0.45
    C: float = 0.9
    a_d: float = 0.1
    a_u: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.d_u < 0.5:
            raise ValidationError("require 0 < d_u < 1/2")
        if not 0.0 < self.C < 1.0:
            raise ValidationError("require 0 < C < 1")
        if not 0.0 < self.a_d < self.a_u < math.inf:
            raise ValidationError("require 0 < a_d < a_u < inf")

    def c_max(self, d: float, spec: CoeffSpec) -> float:
        """Largest admissible c at exponent d for the family of ``spec``:
        C over the 2-norm of the weights at c = 1, infinite where the
        weights vanish."""
        s2 = sum_sq(spec, Theta(d, 1.0, 1.0))
        return self.C / math.sqrt(s2) if s2 > 0.0 else math.inf

    def contains(self, theta: Theta, spec: CoeffSpec) -> bool:
        tol = _CONTAINS_TOL
        if not 0.0 - tol <= theta.d <= self.d_u + tol:
            return False
        if not self.a_d - tol <= theta.a <= self.a_u + tol:
            return False
        cmax = self.c_max(theta.d, spec)
        return -tol <= theta.c <= cmax * (1.0 + tol) + tol

    def validate(self, theta: Theta, spec: CoeffSpec) -> None:
        if not self.contains(theta, spec):
            raise ValidationError(f"{theta} outside parameter space {self}")


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{i>=0} (q + i)**(-x) for x > 1 and q >= 1.

    The cephes algorithm behind ``scipy.special.zeta``, operation for
    operation, so the two agree bit for bit: the asymptotic expansion for
    q > 1e8, else a direct sum (at least 9 terms and past q + i > 9) closed
    by Euler-Maclaurin terms.
    """
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q ** -x
    if s == 0.0:                    # every term underflows
        return 0.0
    w, i, b = q, 0, 0.0
    while i < 9 or w <= 9.0:
        i += 1
        w += 1.0
        b = w ** -x
        s += b
        if abs(b / s) < _ZETA_TOL:
            return s
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for den in _ZETA_EM:
        a *= x + k
        b /= w
        t = a * b / den
        s += t
        if abs(t / s) < _ZETA_TOL:
            break
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


# sum_{j>=1} pi_j^2 = Gamma(1-2d)/Gamma(1-d)^2 - 1 = expm1(sum_{k>=2}
# zeta(k) (2^k - 2) d^k / k); the closed form cancels to nothing near d = 0,
# so the series serves below _FARIMA_SERIES_D, where the 60 terms leave a
# remainder below 1e-19 of the sum
_FARIMA_SERIES_D = 0.25
_FARIMA_SERIES = tuple(_hurwitz_zeta(float(k), 1.0) * (2.0 ** k - 2.0) / k
                       for k in range(61, 1, -1))


def _farima_sum_sq(d: float) -> float:
    """sum_{j>=1} pi_j(d)^2 for 0 <= d < 1/2, exactly zero at d = 0."""
    if d >= _FARIMA_SERIES_D:
        return math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2 - 1.0
    acc = 0.0
    for coef in _FARIMA_SERIES:     # Horner, highest power first
        acc = acc * d + coef
    return math.expm1(acc * d * d)


def zeta_tail(s: float, t0: int = 1) -> float:
    """Tail sum of j**(-s) over j >= t0 (Hurwitz zeta).

    Evaluated by Euler-Maclaurin summation (:func:`_hurwitz_zeta`);
    relative accuracy is at machine-precision level, well inside the
    1e-10 contract.
    """
    if s <= 1.0:
        raise DivergenceError(f"zeta tail diverges for s = {s} <= 1")
    t0 = int(t0)
    if t0 < 1:
        raise DomainError("t0 must be a positive integer")
    return _hurwitz_zeta(float(s), float(t0))


def _unit_rows(family: str, d: float, J: int, order: int) -> np.ndarray:
    """Rows k = 0..order of the k-th d-derivatives of the unit weights
    r_1..r_J, where b_j = c s(d) r_j (see :func:`_scaled`).

    ``"power"``: r_j = j**(d-1), row k = log(j)**k r.  ``"farima"``, up to
    order 2: r_j = pi_j / d, the recurrence without its first factor d
    (entire in d, exact at d = 0); r' = l1 r and r'' = (l1^2 - l2) r with
    l_p = sum_{i=2..j} (i - 1 + d)**(-p).
    """
    if J < 1:
        raise DomainError("J must be >= 1")
    j = np.arange(1, J + 1, dtype=float)
    rows = np.empty((order + 1, J))
    if family == "power":
        logj = np.log(j)
        np.exp((d - 1.0) * logj, out=rows[0])
        for k in range(1, order + 1):
            np.multiply(logj ** k, rows[0], out=rows[k])
        return rows
    if order > 2:
        raise UnsupportedError(
            "farima d-derivatives beyond order 2 are not supported")
    num = j - 1.0 + d                    # factor i of pi_j is num_i / i
    factors = num / j
    factors[0] = 1.0
    np.cumprod(factors, out=rows[0])
    if order >= 1:
        inv = np.append(0.0, 1.0 / num[1:])
        l1 = np.cumsum(inv)
        np.multiply(l1, rows[0], out=rows[1])
    if order == 2:
        np.multiply(l1 * l1 - np.cumsum(inv * inv), rows[0], out=rows[2])
    return rows


def _scaled(family: str, d: float, rows):
    """Rows k = 0.. of the d-derivatives of s(d) x from those of x, with
    s = 1 for ``"power"`` and s = d for ``"farima"``: (s x)^(k) =
    s x^(k) + k s' x^(k-1).  Linear in x, so ``rows`` may be unit weight
    rows or their lag sums."""
    if family == "power":
        return rows
    out = d * rows
    out[1:] += np.arange(1, len(rows))[:, None] * rows[:-1]
    return out


def coeff_weights(spec: CoeffSpec, theta: Theta, J: int) -> np.ndarray:
    """Vector of weights b_1..b_J."""
    unit = _unit_rows(spec.family, theta.d, J, 0)
    return theta.c * _scaled(spec.family, theta.d, unit)[0]


def norm_p(spec: CoeffSpec, theta: Theta, p: float) -> float:
    """p-norm of the full weight sequence, (sum_j |b_j|**p)**(1/p)."""
    if p < 2.0:
        raise DomainError("require p >= 2")
    if p * (1.0 - theta.d) <= 1.0:
        raise DivergenceError(
            f"sum |b_j|^p diverges for p = {p}, d = {theta.d}")
    if spec.family == "power":
        return abs(theta.c) * zeta_tail(p * (1.0 - theta.d), 1) ** (1.0 / p)
    if theta.d == 0.0 or theta.c == 0.0:
        return 0.0
    pi = coeff_weights(spec, replace(theta, c=1.0), _FARIMA_NORM_TERMS)
    head = float(np.sum(pi ** p))
    # Tail via pi_j = j^(d-1)/Gamma(d) * (1 + d(d-1)/(2j) + O(j^-2)).
    s = p * (1.0 - theta.d)
    g = math.gamma(theta.d) ** (-p)
    t0 = _FARIMA_NORM_TERMS + 1
    tail = g * (zeta_tail(s, t0)
                + 0.5 * p * theta.d * (theta.d - 1.0) * zeta_tail(s + 1.0, t0))
    return abs(theta.c) * (head + tail) ** (1.0 / p)


def sum_sq(spec: CoeffSpec, theta: Theta) -> float:
    """sum_j b_j^2 over the full (untruncated) weight sequence."""
    return tail_variance(spec, theta, 1)


def tail_variance(spec: CoeffSpec, theta: Theta, t: int) -> float:
    """Tail sum sum_{j>=t} b_j^2, the variance of dropping lags before t."""
    t = int(t)
    if t < 1:
        raise DomainError("t must be >= 1")
    if spec.family == "power":
        if theta.c == 0.0:
            return 0.0
        return theta.c ** 2 * zeta_tail(2.0 - 2.0 * theta.d, t)
    if not 0.0 <= theta.d < 0.5:
        raise DivergenceError("farima weights require 0 <= d < 1/2")
    total = theta.c ** 2 * _farima_sum_sq(theta.d)
    if t == 1:
        return total
    prefix = float(np.sum(coeff_weights(spec, theta, t - 1) ** 2))
    return max(total - prefix, 0.0)


@dataclass
class NoiseMoments:
    """Signed moments mu_p and absolute moments |mu|_p of the innovations;
    the consistency checks allow a relative rounding of 1e-12."""

    mu: dict = field(default_factory=dict)
    mu_abs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mu.get(1, 0.0) != 0.0:
            raise ValidationError("innovations must be centered: mu_1 = 0")
        if abs(self.mu.get(2, 1.0) - 1.0) > 1e-12:
            raise ValidationError("innovations must be standardized: mu_2 = 1")
        for p, m in self.mu.items():
            ma = self.mu_abs.get(p)
            if ma is not None and ma < abs(m) - 1e-12 * max(1.0, abs(m)):
                raise ValidationError(f"|mu|_{p} < |mu_{p}| is inconsistent")
        orders = sorted(self.mu_abs)
        roots = [self.mu_abs[p] ** (1.0 / p) for p in orders]
        for lo, hi in zip(roots, roots[1:]):
            if hi < lo - 1e-12 * max(1.0, lo):
                raise ValidationError("|mu|_p^(1/p) must be nondecreasing in p")

    def moment(self, p: int) -> float:
        try:
            return self.mu[p]
        except KeyError:
            raise MissingMomentError(f"signed moment of order {p} not supplied")

    def abs_moment(self, p: int) -> float:
        try:
            return self.mu_abs[p]
        except KeyError:
            raise MissingMomentError(f"absolute moment of order {p} not supplied")


def gaussian_moments(p_max: int = 8) -> NoiseMoments:
    """Moments of the standard normal up to order p_max.

    mu_p = (p-1)!! for even p and 0 for odd p;
    |mu|_p = 2**(p/2) * Gamma((p+1)/2) / sqrt(pi); from p = 302 on they
    overflow a double, and :class:`DomainError` is raised.
    """
    if p_max < 2:
        raise DomainError("p_max must be >= 2")
    mu, mu_abs = {}, {}
    for p in range(1, p_max + 1):
        try:
            mu[p] = 0.0 if p % 2 else float(math.prod(range(p - 1, 0, -2)))
            mu_abs[p] = (2.0 ** (p / 2.0) * math.gamma((p + 1) / 2.0)
                         / math.sqrt(math.pi))
        except OverflowError:
            mu_abs[p] = math.inf
        if mu_abs[p] == math.inf:
            raise DomainError(f"the normal moment of order {p} overflows a "
                              f"double; p_max = {p_max} must be below {p}")
    return NoiseMoments(mu=mu, mu_abs=mu_abs)


@dataclass(frozen=True)
class ConditionCheck:
    """Left-hand side of a moment condition; holds iff lhs < 1."""

    lhs: float
    holds: bool


@dataclass(frozen=True)
class MomentReport:
    """Checker output for the third/higher-moment sufficient conditions."""

    m3: ConditionCheck
    mp_prime: dict
    mp_dblprime: dict


def check_moment_conditions(spec: CoeffSpec, theta: Theta, nm: NoiseMoments,
                            ps=(4, 5)) -> MomentReport:
    """Evaluate the sufficient moment conditions at theta.

    The third-moment condition uses lhs = |mu|_3^(1/3) ||b||_3
    + 3 zeta ||b||_2 with zeta the positive root of 3z^2 - 3z - 1 = 0.
    For each p in ps the prime condition uses
    lhs = (2^p - p - 1)^(1/2) |mu|_p^(1/p) ||b||_2, and for even p >= 4 the
    double-prime condition uses lhs = sum_{j=2}^p C(p, j) ||b||_j^j |mu_j|.
    All conditions hold iff lhs < 1; the checker only reports, it never
    asserts that a parameter point satisfies them.
    """
    b2 = norm_p(spec, theta, 2.0)
    b3 = norm_p(spec, theta, 3.0)
    lhs3 = nm.abs_moment(3) ** (1.0 / 3.0) * b3 + 3.0 * ZETA_M3 * b2
    m3 = ConditionCheck(lhs3, lhs3 < 1.0)

    prime, dblprime = {}, {}
    for p in ps:
        p = int(p)
        if p < 2:
            raise DomainError("prime condition requires p >= 2")
        lhs = math.sqrt(2.0 ** p - p - 1.0) * nm.abs_moment(p) ** (1.0 / p) * b2
        prime[p] = ConditionCheck(lhs, lhs < 1.0)
        if p >= 4 and p % 2 == 0:
            lhs = 0.0
            for j in range(2, p + 1):
                lhs += (math.comb(p, j) * norm_p(spec, theta, float(j)) ** j
                        * abs(nm.moment(j)))
            dblprime[p] = ConditionCheck(lhs, lhs < 1.0)
    return MomentReport(m3=m3, mp_prime=prime, mp_dblprime=dblprime)
