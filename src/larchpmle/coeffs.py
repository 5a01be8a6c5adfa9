"""Coefficient families for linear-ARCH volatility recursions.

The conditional standard deviation is sigma_t = a + sum_j b_j(c, d) X_{t-j}.
Two families of lag weights are supported:

* ``"power"``  : b_j = c * j**(d - 1), the hyperbolically decaying family.
* ``"farima"`` : b_j = c * pi_j(d), where pi_j are the expansion
  coefficients of (1 - B)**(-d) - 1 (fractional-differencing weights).

This module also provides the parameter box used for estimation, zeta-type
tail sums, coefficient p-norms, and checkers for the moment conditions that
guarantee finite third/higher moments of the process.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import zeta as _hurwitz_zeta

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
    "coeff",
    "coeff_deriv",
    "coeff_weights",
    "deriv_weights",
    "zeta_tail",
    "c_upper",
    "norm_p",
    "tail_variance",
    "sum_sq",
    "gaussian_moments",
    "check_moment_conditions",
]

# Positive root of 3 z^2 - 3 z - 1 = 0, used by the third-moment condition.
ZETA_M3 = (3.0 + math.sqrt(21.0)) / 6.0

# Lag count at which numerically summed farima norms switch to the
# asymptotic tail correction.
_FARIMA_NORM_TERMS = 200_000


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
    sum(b_j^2) <= C^2 < 1, and a in [a_d, a_u].
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

    def c_max(self, d: float, spec: CoeffSpec | None = None) -> float:
        """Largest admissible c at exponent d for the given family."""
        family = spec.family if spec is not None else "power"
        if family == "power":
            return c_upper(d, self.C)
        s2 = _farima_sum_sq_unit(d)
        if s2 <= 0.0:
            return math.inf
        return self.C / math.sqrt(s2)

    def contains(self, theta: Theta, spec: CoeffSpec | None = None,
                 tol: float = 1e-12) -> bool:
        if not 0.0 - tol <= theta.d <= self.d_u + tol:
            return False
        if not self.a_d - tol <= theta.a <= self.a_u + tol:
            return False
        cmax = self.c_max(theta.d, spec)
        return -tol <= theta.c <= cmax * (1.0 + tol) + tol

    def validate(self, theta: Theta, spec: CoeffSpec | None = None) -> None:
        if not self.contains(theta, spec):
            raise ValidationError(f"{theta} outside parameter space {self}")


def zeta_tail(s: float, t0: int = 1) -> float:
    """Tail sum of j**(-s) over j >= t0 (Hurwitz zeta).

    Evaluated by scipy's Euler-Maclaurin implementation; relative accuracy
    is at machine-precision level, well inside the 1e-10 contract.
    """
    if s <= 1.0:
        raise DivergenceError(f"zeta tail diverges for s = {s} <= 1")
    t0 = int(t0)
    if t0 < 1:
        raise DomainError("t0 must be a positive integer")
    return float(_hurwitz_zeta(s, t0))


def c_upper(d: float, C: float) -> float:
    """Upper bound on c so that sum_j (c j**(d-1))**2 = C^2 at the bound."""
    if d >= 0.5:
        raise DivergenceError("squared power-law weights are not summable for d >= 1/2")
    if d < 0.0:
        raise DomainError("require d >= 0")
    if not 0.0 < C < 1.0:
        raise DomainError("require 0 < C < 1")
    return C / math.sqrt(zeta_tail(2.0 - 2.0 * d, 1))


def _farima_pi(d: float, J: int) -> np.ndarray:
    """Weights pi_1..pi_J of (1 - B)**(-d) - 1 via the stable recurrence."""
    j = np.arange(1, J + 1, dtype=float)
    factors = (j - 1.0 + d) / j          # first factor is d itself
    return np.cumprod(factors)


def _farima_rho(d: float, J: int) -> np.ndarray:
    """rho_j = pi_j / d, j = 1..J: the recurrence of :func:`_farima_pi`
    without its first factor d, entire in d and exact at d = 0."""
    j = np.arange(1, J + 1, dtype=float)
    factors = (j - 1.0 + d) / j
    factors[0] = 1.0
    return np.cumprod(factors)


def _farima_pi_deriv(d: float, J: int) -> np.ndarray:
    """d/dd of pi_j by the log-derivative identity, factored to stay exact
    at d = 0: pi'_j = rho_j (1 + d sum_{i=2..j} 1 / (i - 1 + d))."""
    j = np.arange(1, J + 1, dtype=float)
    sums = np.zeros(J)                   # sum_{i=2..j} 1 / (i - 1 + d)
    sums[1:] = np.cumsum(1.0 / (j[1:] - 1.0 + d))
    return _farima_rho(d, J) * (1.0 + d * sums)


def _farima_sum_sq_unit(d: float) -> float:
    """sum_{j>=1} pi_j(d)^2 in closed form via gamma functions."""
    if not 0.0 <= d < 0.5:
        raise DivergenceError("farima weights require 0 <= d < 1/2")
    if d == 0.0:
        return 0.0
    return float(_gamma(1.0 - 2.0 * d) / _gamma(1.0 - d) ** 2 - 1.0)


def coeff(spec: CoeffSpec, theta: Theta, j: int) -> float:
    """Lag-j weight b_j(theta): the last entry of :func:`coeff_weights`."""
    j = int(j)
    if j < 1:
        raise DomainError("lag index j must be >= 1")
    return float(coeff_weights(spec, theta, j)[-1])


def coeff_deriv(spec: CoeffSpec, theta: Theta, j: int,
                order_d: int = 0, order_c: int = 0) -> float:
    """Partial derivative of b_j: the last entry of :func:`deriv_weights`."""
    j = int(j)
    if j < 1:
        raise DomainError("lag index j must be >= 1")
    return float(deriv_weights(spec, theta, j, order_d, order_c)[-1])


def coeff_weights(spec: CoeffSpec, theta: Theta, J: int) -> np.ndarray:
    """Vector of weights b_1..b_J."""
    if J < 1:
        raise DomainError("J must be >= 1")
    if spec.family == "power":
        j = np.arange(1, J + 1, dtype=float)
        return theta.c * j ** (theta.d - 1.0)
    return theta.c * _farima_pi(theta.d, J)


def deriv_weights(spec: CoeffSpec, theta: Theta, J: int,
                  order_d: int = 0, order_c: int = 0) -> np.ndarray:
    """Partial derivatives of b_1..b_J w.r.t. d (up to order 3) and/or c
    (order 1).

    The weights are linear in c, so order_c <= 1; mixed derivatives are the
    d-derivative of the c-derivative.  The farima family supports d-orders
    up to 1.
    """
    if J < 1:
        raise DomainError("J must be >= 1")
    if order_c not in (0, 1):
        raise DomainError("weights are linear in c: order_c must be 0 or 1")
    if not 0 <= order_d <= 3:
        raise DomainError("order_d must be in 0..3")
    if order_d + order_c < 1:
        raise DomainError("request at least one derivative order")
    if spec.family == "power":
        j = np.arange(1, J + 1, dtype=float)
        scale = 1.0 if order_c == 1 else theta.c
        return scale * np.log(j) ** order_d * j ** (theta.d - 1.0)
    if order_d >= 2:
        raise UnsupportedError(
            "farima d-derivatives beyond order 1 are not supported")
    scale = 1.0 if order_c == 1 else theta.c
    if order_d == 0:
        return scale * _farima_pi(theta.d, J)
    return scale * _farima_pi_deriv(theta.d, J)


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
    pi = _farima_pi(theta.d, _FARIMA_NORM_TERMS)
    head = float(np.sum(pi ** p))
    # Tail via pi_j = j^(d-1)/Gamma(d) * (1 + d(d-1)/(2j) + O(j^-2)).
    s = p * (1.0 - theta.d)
    g = _gamma(theta.d) ** (-p)
    t0 = _FARIMA_NORM_TERMS + 1
    tail = g * (zeta_tail(s, t0)
                + 0.5 * p * theta.d * (theta.d - 1.0) * zeta_tail(s + 1.0, t0))
    return abs(theta.c) * (head + tail) ** (1.0 / p)


def sum_sq(spec: CoeffSpec, theta: Theta) -> float:
    """sum_j b_j^2 over the full (untruncated) weight sequence."""
    if spec.family == "power":
        if theta.c == 0.0:
            return 0.0
        return theta.c ** 2 * zeta_tail(2.0 - 2.0 * theta.d, 1)
    return theta.c ** 2 * _farima_sum_sq_unit(theta.d)


def tail_variance(spec: CoeffSpec, theta: Theta, t: int) -> float:
    """Tail sum sum_{j>=t} b_j^2, the variance of dropping lags before t."""
    t = int(t)
    if t < 1:
        raise DomainError("t must be >= 1")
    if spec.family == "power":
        if theta.c == 0.0:
            return 0.0
        return theta.c ** 2 * zeta_tail(2.0 - 2.0 * theta.d, t)
    total = theta.c ** 2 * _farima_sum_sq_unit(theta.d)
    if t == 1:
        return total
    prefix = theta.c ** 2 * float(np.sum(_farima_pi(theta.d, t - 1) ** 2))
    return max(total - prefix, 0.0)


@dataclass
class NoiseMoments:
    """Signed moments mu_p and absolute moments |mu|_p of the innovations."""

    mu: dict = field(default_factory=dict)
    mu_abs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mu.get(1, 0.0) != 0.0:
            raise ValidationError("innovations must be centered: mu_1 = 0")
        if abs(self.mu.get(2, 1.0) - 1.0) > 1e-12:
            raise ValidationError("innovations must be standardized: mu_2 = 1")
        for p, m in self.mu.items():
            ma = self.mu_abs.get(p)
            if ma is not None and ma < abs(m) - 1e-12:
                raise ValidationError(f"|mu|_{p} < |mu_{p}| is inconsistent")
        orders = sorted(self.mu_abs)
        roots = [self.mu_abs[p] ** (1.0 / p) for p in orders]
        for lo, hi in zip(roots, roots[1:]):
            if hi < lo - 1e-12:
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
    |mu|_p = 2**(p/2) * Gamma((p+1)/2) / sqrt(pi).
    """
    if p_max < 2:
        raise DomainError("p_max must be >= 2")
    mu, mu_abs = {}, {}
    for p in range(1, p_max + 1):
        if p % 2 == 0:
            mu[p] = float(math.prod(range(p - 1, 0, -2)))
        else:
            mu[p] = 0.0
        mu_abs[p] = 2.0 ** (p / 2.0) * math.gamma((p + 1) / 2.0) / math.sqrt(math.pi)
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
