"""Sample-path generation for linear-ARCH volatility processes.

The process is x_t = eps_t * sigma_t with sigma_t = a + sum_j b_j x_{t-j}.
Generation starts from an empty past (sigma_1 = a) and discards a burn-in
segment; the lag sum is truncated at order J.  The recursion is linear in
x, (I - diag(eps) L) x = a eps with L the strictly lower-triangular
Toeplitz matrix of the weights, so the simulator advances a block of
steps per iteration with one correlation for the lags reaching before the
block and one product with the inverse of the block's triangular system
for those inside it.  Those inverses depend on the innovations alone and
are built for a chunk of blocks at once, each from the inverses of its
two half-blocks, which share one Toeplitz system.  The chunks lie on one
grid from step 0, and the path comes in pieces cut where the caller asks
(:func:`_pieces`), each with the bits of the same steps of the whole path:
the whole path for ``simulate``, a stretch of at most max(2 J, 2048)
steps of an averaging block after its J lags for an ergodic average.  The
tests keep the step-by-step recursion and the chain expansion of the
stationary solution as its oracles.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coeffs import (CoeffSpec, ParamSpace, Theta, coeff_weights,
                     tail_variance)
from .errors import DomainError, NumericError, ValidationError

__all__ = ["SimConfig", "Sample", "derive_seed", "simulate"]

# steps the simulator advances per block: each block costs one correlation
# of length J + B - 1 with the weights and one B x B matrix-vector product
_BLOCK = 32
# blocks whose in-block inverses are built together; the inverses take
# 64 x 32 x 32 doubles (512 KiB), and their 128 half-block inverses with
# the eps-scaled copy as much again (1 MiB in all)
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
    """A simulated path: ``config.burn_in`` steps of burn-in, then the n
    points of the analysis window.  x[0] is the path's first step, and
    before it lies the empty past, which a lag reaching there reads as
    zero.  By construction x[t] = eps[t] * sigma[t] for every t;
    ``config.J`` is the path's truncation order.
    """

    x: np.ndarray
    sigma: np.ndarray
    eps: np.ndarray
    config: SimConfig

    @property
    def n(self) -> int:
        return len(self.x) - self.config.burn_in

    @property
    def x_obs(self) -> np.ndarray:
        """The n retained observations (analysis window)."""
        return self.x[self.config.burn_in:]

    @property
    def sigma_obs(self) -> np.ndarray:
        return self.sigma[self.config.burn_in:]

    @property
    def eps_obs(self) -> np.ndarray:
        return self.eps[self.config.burn_in:]


def _inverses(L, E, X, W):
    """Fill X with the inverses of I - L diag(e) for the K rows e of E.

    X is (B, K, B) and holds row r of block k's inverse at [r, k]; its
    upper-right quadrant must be zero on entry.  With h = B / 2,
    L11 = L[:h, :h] and L21 = L[h:, :h], the inverse for a block with
    halves e_1, e_2 is [[X_1, 0], [X_2 L21 Y_1, X_2]], where
    X_q = (I - L11 diag(e_q))^-1 (L is Toeplitz, so both halves share L11)
    and Y_q = diag(e_q) X_q.  The 2K half-block inverses come from forward
    substitution in the (2, h, 2K, h) work array W = (X_q, Y_q), laid out
    as X, whose W[0, 0] is unit row 0: row r of X_q is unit_r plus L11[r]
    times the rows of Y_q, so all 2K rows r are one product of the weights
    L11[r, :r] with rows < r of W[1], where each half-block scales its row
    r by its own e[r]."""
    B, K = len(L), len(E)
    h = B // 2
    Xh, Yh = W
    Xh2, Yh2 = Xh.reshape(h, -1), Yh.reshape(h, -1)
    Eh = E.reshape(2 * K, h)
    np.multiply(Xh[0], Eh[:, :1], out=Yh[0])
    for r in range(1, h):
        np.matmul(L[r, :r], Yh2[:r], out=Xh2[r])
        Xh[r, :, r] = 1.0
        np.multiply(Xh[r], Eh[:, r:r + 1], out=Yh[r])
    # half q of block k is half-block 2k + q; X4[p, i, k, q, j] is entry
    # (p h + i, q h + j) of block k's inverse
    X4, Xh4 = X.reshape(2, h, K, 2, h), Xh.reshape(h, K, 2, h)
    X4[0, :, :, 0] = Xh4[:, :, 0]
    X4[1, :, :, 1] = Xh4[:, :, 1]
    X2 = Xh4[:, :, 1].transpose(1, 0, 2)
    Y1 = Yh.reshape(h, K, 2, h)[:, :, 0].transpose(1, 0, 2)
    X4[1, :, :, 0] = ((X2 @ L[h:, :h]) @ Y1).transpose(1, 0, 2)


@np.errstate(over="ignore", invalid="ignore")
def _advance(path, b_rev, L, a, t, n, work):
    """Chunks of K blocks of B = len(L) steps from step t (a multiple of B)
    to step n of ``path``, whose rows x, sigma and eps each hold J lags and
    then whole blocks; x is still zero from step t on and the steps past n
    get zero innovations.  A chunk's in-block inverses are built from eps
    once, in ``work`` = (X, E, W) of :func:`_inverses`, and its blocks run
    once; a chunk that is not finite finishes step by step.  Returns the
    first non-finite step, or None."""
    J, B = len(b_rev), len(L)
    X, E, W = work
    buf, sig, eps = path[0], path[1, J:], path[2, J:J + n]
    lags = sliding_window_view(buf, J + B - 1)[::B]
    sig_b, x_b = sig.reshape(-1, B), buf[J:].reshape(-1, B)
    for k0 in range(t // B, -(-n // B), len(E)):
        k1 = min(k0 + len(E), -(-n // B))
        e = eps[k0 * B:k1 * B]
        E.flat[:len(e)] = e
        E.flat[len(e):] = 0.0
        _inverses(L, E, X, W)
        # X (h + a) = X h + a X 1
        u = (X @ np.full(B, a)).T
        for Xk, uk, w, ek, s, x in zip(X.transpose(1, 0, 2), u, lags[k0:k1],
                                       E, sig_b[k0:k1], x_b[k0:k1]):
            np.matmul(Xk, np.correlate(w, b_rev), out=s)
            s += uk
            np.multiply(ek, s, out=x)
        x = buf[J + k0 * B:J + min(k1 * B, n)]
        # min and max show nan and inf without an array of flags
        if not (math.isfinite(x.min()) and math.isfinite(x.max())):
            # the blocks before the first non-finite x are exact; the chunk
            # finishes step by step from its block, and a step reads only
            # the J steps before it, never the pass's values after it
            t0 = k0 * B + int(np.argmin(np.isfinite(x))) // B * B
            bad = _replay(buf, sig, eps, b_rev, a, t0, min(k1 * B, n))
            if bad is not None:
                return bad
    return None


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


def _checked(spec: CoeffSpec, theta0: Theta, cfg: SimConfig,
             space: ParamSpace | None = None) -> SimConfig:
    """cfg with J resolved, once theta0 is checked (see simulate)."""
    space = space or ParamSpace()
    space.validate(theta0, spec)
    if tail_variance(spec, theta0, 1) >= 1.0:
        raise ValidationError("sum of squared weights must be < 1")
    return cfg if cfg.J is not None else replace(cfg, J=spec.J)


def _pieces(spec: CoeffSpec, theta0: Theta, cfg: SimConfig, ends):
    """The path of ``cfg`` (from :func:`_checked`) cut at the increasing
    steps ``ends``, the last burn_in + n: per stretch between consecutive
    ends an (x, sigma, eps) triple of views of one array that the next
    piece overwrites, each the J steps before the stretch (zeros for the
    empty past) and the stretch.  Whatever the cuts, the path runs on one
    grid of chunks of _CHUNK blocks from step 0, each drawn from the path's
    one generator and its inverses built once, so every piece has the bits
    of the same steps of ``simulate``.  The chunk does not depend on the
    path's length either, so the first k steps of a path have the same
    bits at any length from k on.  The array holds the longest piece and a
    chunk; steps before ends[0] run unyielded, in pieces of whole chunks
    that fill it.  Steps in errors count from the path's start.
    """
    J, B, K, a, total = cfg.J, _BLOCK, _CHUNK, theta0.a, ends[-1]
    C = K * B
    size = -(-np.diff(ends).max() // B) * B + C
    cuts = [*range(0, ends[0], size // C * C), *ends]
    b = coeff_weights(spec, theta0, J)
    b_rev = b[::-1].copy()
    b_in = np.zeros(B)
    b_in[1:min(J, B - 1) + 1] = b[:B - 1]
    i = np.arange(B)
    L = np.tril(b_in[np.abs(i[:, None] - i[None, :])], -1)
    # rows x, sigma and eps: column J + t - base holds step t, for the
    # steps from J before base (a multiple of B) up to done
    buf, sig, eps = path = np.zeros((3, J + size))
    work = (np.zeros((B, K, B)), np.empty((K, B)),
            np.zeros((2, B // 2, 2 * K, B // 2)))
    work[2][0, 0, :, 0] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    base = done = 0
    for start, end in zip(cuts[:-1], cuts[1:]):
        # keep the steps from J before the block that holds start
        old, base = base, start - start % B
        path[:, :J + done - base] = path[:, base - old:J + done - old]
        buf[J + done - base:] = 0.0
        stop = min(-(-end // C) * C, total)
        if done < stop:
            e = eps[J + done - base:J + stop - base]
            if isinstance(cfg.noise, str):
                rng.standard_normal(out=e)
            else:
                # the indices are in range; "clip" writes straight into e
                np.take(np.asarray(cfg.noise, dtype=float),
                        rng.integers(0, len(cfg.noise), len(e)), out=e,
                        mode="clip")
            bad = _advance(path, b_rev, L, a, done - base, stop - base, work)
            if bad is not None:
                raise NumericError(
                    f"path is non-finite from step t = {base + bad + 1} "
                    f"of {total} (burn-in included)")
            done = stop
        if start >= ends[0]:
            yield path[:, start - base:J + end - base]


def simulate(spec: CoeffSpec, theta0: Theta, cfg: SimConfig,
             space: ParamSpace | None = None) -> Sample:
    """Generate a path of length burn_in + n by the truncated recursion.

    sigma_1 = a, then sigma_t = a + sum_{j=1}^{min(J, t-1)} b_j x_{t-j} and
    x_t = eps_t sigma_t.  Deterministic given cfg.seed.  theta0 must lie in
    the parameter space and satisfy sum b_j^2 < 1.  A path that overflows
    raises :class:`NumericError` naming the first non-finite step.  J is
    cfg.J, or spec.J when cfg.J is None; the sample records it in its
    ``config``, so code reading a sample never resolves J again.

    The path is advanced ``_BLOCK`` steps at a time, exactly, after J
    zeros that stand for the empty past: the lags reaching before a block
    are one correlation with the weights, and those inside it one product
    with the inverse of the block's unit lower-triangular system, built
    from eps for a chunk of ``_CHUNK`` blocks at once (:func:`_inverses`;
    the chunks lie on one grid from step 0).  Results agree with the
    step-by-step recursion to rounding (the sums run in another order).
    A chunk that is not finite finishes step by step from its first
    non-finite block, keeping the finite values and locating the first
    non-finite step.  The sample's arrays are the one piece of
    :func:`_pieces`, the whole path; any cut of it keeps these bits, and
    so does a longer path from the same seed over its first steps.  The
    correlation with the weights runs in BLAS, which splits long vectors
    across its threads, so a seeded path with J >= 16000 repeats bit for
    bit only at a fixed BLAS thread count (``OPENBLAS_NUM_THREADS``).
    """
    cfg = _checked(spec, theta0, cfg, space)
    path = next(_pieces(spec, theta0, cfg, [0, cfg.burn_in + cfg.n]))
    x, sig, eps = path[:, cfg.J:]
    return Sample(x=x, sigma=sig, eps=eps, config=cfg)
