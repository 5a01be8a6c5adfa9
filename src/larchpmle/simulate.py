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
two half-blocks, which share one Toeplitz system.  The path comes in
pieces of reused work arrays (:func:`_pieces`): ``simulate`` keeps the
whole path as one piece, while an ergodic average can stream a long path
in pieces of ``_PIECE`` steps and keep only the J lags between them.  The
tests keep the step-by-step recursion and the chain expansion of the
stationary solution as its oracles.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coeffs import CoeffSpec, ParamSpace, Theta, coeff_weights, sum_sq
from .errors import DomainError, NumericError, ValidationError

__all__ = ["SimConfig", "Sample", "derive_seed", "simulate"]

# steps the simulator advances per block: each block costs one correlation
# of length J + B - 1 with the weights and one B x B matrix-vector product
_BLOCK = 32
# blocks whose in-block inverses are built together; the inverses take
# 64 x 32 x 32 doubles (512 KiB), and their 128 half-block inverses with
# the eps-scaled copy as much again (1 MiB in all)
_CHUNK = 64
# steps per piece of a path streamed by _pieces, a multiple of the steps
# of one chunk, so that pieces split the path's chunks nowhere
_PIECE = 8 * _CHUNK * _BLOCK


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


def _advance(buf, sig, eps, b_rev, L, a, t, work):
    """Blocks of B = len(L) steps from step t (a multiple of B) to the end
    of the piece, which is stored in ``buf`` after J lags and is still zero
    from step t on.  ``buf`` and ``sig`` extend to whole blocks; the steps
    past the piece's end get zero innovations.  The in-block inverses of
    the K blocks of a chunk are built from eps before those blocks run, in
    the work arrays ``work`` = (X, E, W) of :func:`_inverses`."""
    J, B = len(b_rev), len(L)
    X, E, W = work
    n_blocks, K = len(sig) // B, len(E)
    lags = sliding_window_view(buf, J + B - 1)[::B]
    sig_b, x_b = sig.reshape(-1, B), buf[J:].reshape(-1, B)
    for k0 in range(t // B, n_blocks, K):
        k1 = min(k0 + K, n_blocks)
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
    if sum_sq(spec, theta0) >= 1.0:
        raise ValidationError("sum of squared weights must be < 1")
    return cfg if cfg.J is not None else replace(cfg, J=spec.J)


def _pieces(spec: CoeffSpec, theta0: Theta, cfg: SimConfig,
            piece: int = _PIECE):
    """The path of ``cfg`` (from :func:`_checked`), burn-in included, in
    pieces of ``piece`` steps (the last may be shorter), each an (x, sigma,
    eps) triple of views of work arrays that the next piece overwrites.

    Drawn piece by piece from one generator, the innovations equal one
    draw for the whole path.  x is stored after J values: zeros for the
    empty past, then the last J values of the previous piece.  The chunk
    work arrays have K = min(_CHUNK, blocks of the path) rows for the whole
    path, so pieces of a multiple of K blocks give the bits of one piece.
    Steps in errors count from the path's start.
    """
    J, B, a = cfg.J, _BLOCK, theta0.a
    total = cfg.burn_in + cfg.n
    b = coeff_weights(spec, theta0, J)
    b_rev = b[::-1].copy()
    b_in = np.zeros(B)
    b_in[1:min(J, B - 1) + 1] = b[:B - 1]
    i = np.arange(B)
    L = np.tril(b_in[np.abs(i[:, None] - i[None, :])], -1)
    piece = min(piece, total)
    padded = -(-piece // B) * B
    buf, sig, eps = np.zeros(J + padded), np.empty(padded), np.empty(piece)
    K = min(_CHUNK, -(-total // B))
    work = (np.zeros((B, K, B)), np.empty((K, B)),
            np.zeros((2, B // 2, 2 * K, B // 2)))
    work[2][0, 0, :, 0] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    for start in range(0, total, piece):
        m = min(piece, total - start)
        mb = -(-m // B) * B
        x, e, t = buf[J:J + m], eps[:m], 0
        if isinstance(cfg.noise, str):
            rng.standard_normal(out=e)
        else:
            # the indices are in range; "clip" writes straight into e
            np.take(np.asarray(cfg.noise, dtype=float),
                    rng.integers(0, len(cfg.noise), m), out=e, mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):
            while t < m:
                _advance(buf[:J + mb], sig[:mb], e, b_rev, L, a, t, work)
                # min and max show nan and inf without a piece of flags
                if math.isfinite(x[t:].min()) and math.isfinite(x[t:].max()):
                    break
                # the blocks before the first non-finite value are exact;
                # replay the block that holds it
                t0 = t + int(np.argmin(np.isfinite(x[t:])))
                t0 -= t0 % B
                t = t0 + B
                bad = _replay(buf, sig, e, b_rev, a, t0, min(t, m))
                if bad is not None:
                    raise NumericError(
                        f"path is non-finite from step t = "
                        f"{start + bad + 1} of {total} (burn-in included)")
                # the block's inverse alone was not finite: redo the
                # blocks after it
                buf[J + t:] = 0.0
        yield x, sig[:m], e
        # the last J values of the path are the next piece's lags
        buf[:J] = buf[m:m + J]
        buf[J:] = 0.0


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
    before those blocks run, by forward substitution on the blocks' 16-step
    halves and one product for each lower-left quadrant; a block then costs
    the correlation, one B x B product sigma = X h, and x = eps * sigma.
    Results agree with the step-by-step recursion to rounding (the sums
    run in another order).  A block that is not finite is replayed step
    by step, which keeps its values if they are finite and otherwise
    locates the first non-finite step.  The sample's arrays are those of
    the one piece of :func:`_pieces` that holds the whole path.
    """
    cfg = _checked(spec, theta0, cfg, space)
    x, sig, eps = next(_pieces(spec, theta0, cfg, cfg.burn_in + cfg.n))
    return Sample(x=x, sigma=sig, eps=eps, config=cfg, theta=theta0,
                  spec=spec, first_retained=cfg.burn_in)
