"""Slow oracles for sigma: the lag sums written out one time point at a
time, from the observed past (sigma_bar) or from the stored history
(sigma_full), and the chain expansion of the stationary solution
(volterra_sigma).  The package forms sigma only in the simulator's
recursion and in ``PathEvaluator``'s lag sums; these hold both to direct
sums.  h0_from_arrays is the whole-path form of ``limit_h0``, which sums
its path block by block.  Inputs are the tests' own and are not
checked."""

import numpy as np

from larchpmle.asymptotics import LimitH0Result
from larchpmle.coeffs import coeff_weights


def sigma_bar(spec, theta, x, t):
    """sigma_t from the observed past, a + sum_{j<t} b_j x_{t-j}, t 1-based;
    t = len(x) + 1 gives the one-step-ahead prediction."""
    if t == 1:
        return theta.a
    b_rev = coeff_weights(spec, theta, t - 1)[::-1].copy()
    return theta.a + float(b_rev @ np.asarray(x, dtype=float)[:t - 1])


def sigma_full(spec, theta, sample, t, J=None):
    """sigma_t of the sample's window (t 1-based) from its stored history,
    truncated at J lags (by default the sample's simulation truncation),
    all of which must exist."""
    if J is None:
        J = sample.config.J
    b_rev = coeff_weights(spec, theta, J)[::-1].copy()
    pos = sample.first_retained + t - 1
    return theta.a + float(b_rev @ sample.x[pos - J: pos])


def volterra_sigma(spec, theta0, eps_prefix, t, K_max):
    """sigma_t by the chain-expansion series of the stationary solution.

    The series is sigma_t = a * (1 + sum_{k>=1} M_t(k)) where M_t(k) sums,
    over all lag chains j_1, ..., j_k >= 1 that stay inside the history
    eps_1..eps_{t-1}, the products b_{j_1} ... b_{j_k} eps_{t-j_1} ...
    eps_{t-j_1-...-j_k}.  Depths up to K_max are summed layer by layer: the
    depth-k layer is the depth-(k-1) layer after one weighted convolution,
    so no chain is enumerated.  With K_max >= t - 1 the value equals the
    recursion started from an empty past exactly.
    """
    m = t - 1                      # usable history eps_1..eps_{t-1}
    if m == 0:
        return theta0.a
    b = coeff_weights(spec, theta0, m)
    eps = np.asarray(eps_prefix, dtype=float)[:m]
    # prev[s-1] holds the depth-(k-1) chain sum rooted at time s (1-based)
    prev = np.ones(m)
    total = 0.0
    for _ in range(min(K_max, m)):
        # conv[v-1] = sum_{s < v} b_{v-s} eps_s prev_s, v = t its last term
        conv = np.convolve(b, eps * prev)
        total += conv[m - 1]
        prev = np.concatenate(([0.0], conv[:m - 1]))
        if not prev.any():
            break
    return float(theta0.a * (1.0 + total))


def h0_from_arrays(sigma, S):
    """Average of 4 sdot sdot^T / sigma^2 over whole-path arrays with the
    divergence monitor of ``limit_h0``: divergent when the prefix averages
    of the trace over the first n/8, n/4, n/2 and n points span more than
    0.05 of the last, when one time point holds more than 0.1 of the trace
    sum, or when a term is non-finite (then without checkpoints)."""
    n = len(sigma)
    with np.errstate(divide="ignore", over="ignore"):
        w = 4.0 / (sigma * sigma)
        trace_terms = w * np.einsum("ij,ij->i", S, S)
    if not np.all(np.isfinite(trace_terms)):
        return LimitH0Result(matrix=None, diverged=True, checkpoints=())
    checkpoints = tuple(
        float(np.mean(trace_terms[: max(1, n // k)])) for k in (8, 4, 2, 1))
    span = ((max(checkpoints) - min(checkpoints))
            / max(abs(checkpoints[-1]), 1e-300))
    share = float(trace_terms.max() / max(trace_terms.sum(), 1e-300))
    if span > 0.05 or share > 0.1:
        return LimitH0Result(matrix=None, diverged=True,
                             checkpoints=checkpoints)
    return LimitH0Result(matrix=(S.T * w) @ S / n, diverged=False,
                         checkpoints=checkpoints)
