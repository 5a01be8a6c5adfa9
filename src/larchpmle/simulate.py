"""Sample-path generation for linear-ARCH volatility processes.

The process is x_t = eps_t * sigma_t with sigma_t = a + sum_j b_j x_{t-j}.
Generation starts from an empty past (sigma_1 = a) and discards a burn-in
segment; the lag sum is truncated at order J.  The recursion is linear in
x, (I - diag(eps) L) x = a eps with L the strictly lower-triangular
Toeplitz matrix of the weights, so the simulator advances a block of
steps per iteration with one correlation for the lags reaching before the
block and one product with the inverse of the block's triangular system
for those inside it.  Those inverses depend on the innovations alone and
are built for a chunk of blocks at once.  The tests keep the step-by-step
recursion as its oracle.  A chain-expansion evaluator of
the stationary-solution series is provided as an independent oracle for
the recursion.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coeffs import CoeffSpec, ParamSpace, Theta, coeff_weights, sum_sq
from .errors import BudgetError, DomainError, NumericError, ValidationError

__all__ = ["SimConfig", "Sample", "derive_seed", "simulate", "volterra_sigma"]

# steps the simulator advances per block: each block costs one correlation
# of length J + B - 1 with the weights and one B x B matrix-vector product
_BLOCK = 32
# blocks whose in-block inverses are built together; the inverses, their
# eps-scaled copy and the repeated eps take 3 x 64 x 32 x 32 doubles (1.5 MiB)
_CHUNK = 64


def derive_seed(base_seed: int, stream: int) -> int:
    """Deterministic 64-bit per-stream seed from (base seed, stream index).

    Mixing is delegated to numpy's SeedSequence keyed on the pair, so
    distinct streams are statistically independent and reproducible.
    """
    if base_seed < 0 or stream < 0:
        raise DomainError(f"seed {base_seed} and stream {stream} must be >= 0")
    ss = np.random.SeedSequence((int(base_seed), int(stream)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol: sample length, burn-in, truncation, seed, noise.

    ``noise`` is either ``"gaussian"`` or a 1-d array of values sampled
    uniformly with replacement (an i.i.d. draw from the empirical table;
    the table should be centered and standardized).
    """

    n: int
    burn_in: int = 10_000
    J: int | None = None
    seed: int = 0
    noise: object = "gaussian"

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sample length n must be >= 1")
        if self.burn_in < 0:
            raise DomainError("burn_in must be >= 0")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.J is not None and self.J < 1:
            raise DomainError("truncation order J must be >= 1")
        if isinstance(self.noise, str):
            if self.noise != "gaussian":
                raise DomainError(f"unknown noise model {self.noise!r}")
        else:
            table = np.asarray(self.noise, dtype=float)
            if table.ndim != 1 or table.size < 2:
                raise DomainError("noise table must be a 1-d array of values")
            if not np.all(np.isfinite(table)):
                raise DomainError("noise table must be finite")
            if abs(table.mean()) > 0.1 or abs(table.var() - 1.0) > 0.1:
                raise ValidationError(
                    "noise table should be centered with unit variance")


@dataclass(frozen=True)
class Sample:
    """A simulated path: burn-in plus analysis window.

    Arrays cover the full generated range (length burn_in + n);
    ``first_retained`` is the 0-based index of the first analysis-window
    observation.  By construction x[t] = eps[t] * sigma[t] for every t.
    ``config.J`` is the truncation order the path was generated with.
    """

    x: np.ndarray
    sigma: np.ndarray
    eps: np.ndarray
    config: SimConfig
    theta: Theta
    spec: CoeffSpec
    first_retained: int

    @property
    def n(self) -> int:
        return len(self.x) - self.first_retained

    @property
    def x_obs(self) -> np.ndarray:
        """The n retained observations (analysis window)."""
        return self.x[self.first_retained:]

    @property
    def sigma_obs(self) -> np.ndarray:
        return self.sigma[self.first_retained:]

    @property
    def eps_obs(self) -> np.ndarray:
        return self.eps[self.first_retained:]


def _draw_innovations(cfg: SimConfig, total: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    if isinstance(cfg.noise, str):
        return rng.standard_normal(total)
    table = np.asarray(cfg.noise, dtype=float)
    return rng.choice(table, size=total, replace=True)


def _inverses(L, E, X, Y):
    """Fill X with the inverses of I - L diag(e) for the K rows e of E.

    X and Y are (B, K, B) work arrays holding row r of block k's inverse
    at [r, k]; X[0] is unit row 0.  Row r of an inverse is unit_r plus
    L[r] times the rows of Y = diag(e) X, so all K rows r are one product
    of the weights L[r, :r] with rows < r of Y: forward substitution run
    on the K blocks at once.  Entries above the diagonal come out zero,
    as Y's are."""
    B = len(L)
    # e[r] holds row r of every block's diag(e), repeated along the row
    e = np.repeat(E.T, B, axis=1)
    X2, Y2 = X.reshape(B, -1), Y.reshape(B, -1)
    np.multiply(X2[0], e[0], out=Y2[0])
    for r in range(1, B):
        np.matmul(L[r, :r], Y2[:r], out=X2[r])
        X[r, :, r] = 1.0
        np.multiply(X2[r], e[r], out=Y2[r])


def _advance(buf, sig, eps, b_rev, L, a, t):
    """Blocks of B = len(L) steps from step t (a multiple of B) to the end
    of the path, which is stored in ``buf`` after J zeros and is still zero
    from step t on.  ``buf`` and ``sig`` extend to whole blocks; the steps
    past the path's end get zero innovations.  The in-block inverses of up
    to ``_CHUNK`` blocks are built from eps before those blocks run."""
    J, B = len(b_rev), len(L)
    n_blocks = len(sig) // B
    K = min(_CHUNK, n_blocks - t // B)
    X, Y, E = np.zeros((B, K, B)), np.zeros((B, K, B)), np.zeros((K, B))
    X[0, :, 0] = 1.0
    lags = sliding_window_view(buf, J + B - 1)[::B]
    sig_b, x_b = sig.reshape(-1, B), buf[J:].reshape(-1, B)
    for k0 in range(t // B, n_blocks, K):
        k1 = min(k0 + K, n_blocks)
        e = eps[k0 * B:k1 * B]
        E.flat[:len(e)] = e
        E.flat[len(e):] = 0.0
        _inverses(L, E, X, Y)
        # X (h + a) = X h + a X 1
        u = (X @ np.full(B, a)).T
        for Xk, uk, w, ek, s, x in zip(X.transpose(1, 0, 2), u, lags[k0:k1],
                                       E, sig_b[k0:k1], x_b[k0:k1]):
            np.matmul(Xk, np.correlate(w, b_rev), out=s)
            s += uk
            np.multiply(ek, s, out=x)


def _replay(buf, sig, eps, b_rev, a, t0, t1):
    """Steps t0..t1-1 one at a time on the zero-padded path ``buf``; the
    0-based index of the first non-finite x, or None when all are finite."""
    J = len(b_rev)
    for t in range(t0, t1):
        sig[t] = a + b_rev @ buf[t:t + J]
        buf[J + t] = eps[t] * sig[t]
        if not math.isfinite(buf[J + t]):
            return t
    return None


def simulate(spec: CoeffSpec, theta0: Theta, cfg: SimConfig,
             space: ParamSpace | None = None) -> Sample:
    """Generate a path of length burn_in + n by the truncated recursion.

    sigma_1 = a, then sigma_t = a + sum_{j=1}^{min(J, t-1)} b_j x_{t-j} and
    x_t = eps_t sigma_t.  Deterministic given cfg.seed.  theta0 must lie in
    the parameter space and satisfy sum b_j^2 < 1.  A path that overflows
    raises :class:`NumericError` naming the first non-finite step.  J is
    cfg.J, or spec.J when cfg.J is None; the sample records it in its
    ``config``, so code reading a sample never resolves J again.

    The recursion is linear in x, so the path is advanced ``_BLOCK`` = B
    steps at a time, exactly.  x is stored after J zeros that stand for
    the empty past.  For a block starting at t0, the lags reaching before
    t0 give h = a + the correlation of the weights with x[t0-J : t0+B-1]
    (the block's own entries are still zero, so they add nothing); the
    lags inside the block leave the unit lower-triangular system
    (I - L diag(eps)) sigma = h, with L the strictly lower-triangular
    Toeplitz matrix of b_1..b_{B-1} (zero beyond J).  Its inverse depends
    on eps alone, so the inverses of ``_CHUNK`` blocks are built at once
    by forward substitution before those blocks run; a block then costs
    the correlation, one B x B product sigma = X h, and x = eps * sigma.
    Results agree with the step-by-step recursion to rounding (the sums
    run in another order).  A block that is not finite is replayed step
    by step, which keeps its values if they are finite and otherwise
    locates the first non-finite step.
    """
    space = space or ParamSpace()
    space.validate(theta0, spec)
    if sum_sq(spec, theta0) >= 1.0:
        raise ValidationError("sum of squared weights must be < 1")
    if cfg.J is None:
        cfg = replace(cfg, J=spec.J)
    J = cfg.J
    total = cfg.burn_in + cfg.n
    eps = _draw_innovations(cfg, total)
    b = coeff_weights(spec, theta0, J)
    b_rev = b[::-1].copy()
    B = _BLOCK
    b_in = np.zeros(B)
    b_in[1:min(J, B - 1) + 1] = b[:B - 1]
    i = np.arange(B)
    L = np.tril(b_in[np.abs(i[:, None] - i[None, :])], -1)
    padded = -(-total // B) * B
    buf = np.zeros(J + padded)
    x = buf[J:J + total]
    sig = np.empty(padded)
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < total:
            _advance(buf, sig, eps, b_rev, L, theta0.a, t)
            finite = np.isfinite(x[t:])
            if finite.all():
                break
            # the blocks before the first non-finite value are exact;
            # replay the block that holds it
            t0 = t + int(np.argmin(finite))
            t0 -= t0 % B
            t = t0 + B
            bad = _replay(buf, sig, eps, b_rev, theta0.a, t0, min(t, total))
            if bad is not None:
                raise NumericError(
                    f"path is non-finite from step t = {bad + 1} of "
                    f"{total} (burn-in included)")
            # the block's inverse alone was not finite: redo the blocks
            # after it
            buf[J + t:] = 0.0
    return Sample(x=x, sigma=sig[:total], eps=eps, config=cfg, theta=theta0,
                  spec=spec, first_retained=cfg.burn_in)


def volterra_sigma(spec: CoeffSpec, theta0: Theta, eps_prefix,
                   t: int, K_max: int, max_ops: int = 10_000_000) -> float:
    """Evaluate sigma_t by the chain-expansion series of the stationary solution.

    The series is sigma_t = a * (1 + sum_{k>=1} M_t(k)) where M_t(k) sums,
    over all lag chains j_1, ..., j_k >= 1 that stay inside the available
    history, the products b_{j_1} ... b_{j_k} eps_{t-j_1} ...
    eps_{t-j_1-...-j_k}.  Depths are summed layer by layer: the depth-k
    layer is obtained from the depth-(k-1) layer by one weighted
    convolution, so no chain is ever enumerated explicitly.  With
    K_max >= t - 1 the value equals the recursion started from an empty
    past exactly.

    ``max_ops`` caps the elementary chain-extension operations performed
    (each multiply-accumulate extends a bundle of chains by one lag).
    """
    eps_prefix = np.asarray(eps_prefix, dtype=float)
    t = int(t)
    if t < 1 or t > len(eps_prefix) + 1:
        raise DomainError("index t must satisfy 1 <= t <= len(eps_prefix) + 1")
    if K_max < 1:
        raise DomainError("K_max must be >= 1")
    m = t - 1                      # usable history eps_1..eps_{t-1}
    if m == 0:
        return theta0.a
    depth = min(K_max, m)
    # one m^2 weighted convolution per depth layer
    if depth * m * m > max_ops:
        raise BudgetError(
            f"chain-expansion budget exceeded: t = {t}, K_max = {K_max}")
    b = coeff_weights(spec, theta0, m)
    eps = eps_prefix[:m]
    # prev[s-1] holds the depth-(k-1) chain sum rooted at time s (1-based).
    prev = np.ones(m)
    total = 0.0
    for _ in range(depth):
        g = eps * prev
        # cur[v-1] = sum_{s < v} b_{v-s} eps_s prev_s  for v = 2..t
        conv = np.convolve(b, g)
        total += conv[m - 1]       # v = t term
        if m == 1:
            break
        prev = np.concatenate(([0.0], conv[: m - 1]))
        if not prev.any():
            break
    result = theta0.a * (1.0 + total)
    if not math.isfinite(result):
        raise NumericError("chain expansion produced a non-finite value")
    return float(result)
