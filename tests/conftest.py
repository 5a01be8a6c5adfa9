from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest

from larchpmle import CoeffSpec, ParamSpace, SimConfig, Theta, simulate
from larchpmle.coeffs import coeff_weights
from larchpmle.simulate import Sample

CASE1 = Theta(0.1, 0.2, 1.0)
CASE2 = Theta(0.2, 0.2, 1.0)
CASE1_BETA = 0.799
CASE2_BETA = 0.599


def scipy_oracle(module):
    """The scipy module named ``module``, which a test reads as its oracle.

    The package runs on numpy alone, so the test skips where scipy is not
    installed; any other import error, such as a broken scipy, fails it.
    """
    try:
        return import_module(module)
    except ModuleNotFoundError as exc:
        if exc.name != "scipy":
            raise
        pytest.skip("scipy is not installed")


@pytest.fixture(scope="session")
def spec():
    return CoeffSpec("power", 2000)


@pytest.fixture(scope="session")
def farima_spec():
    return CoeffSpec("farima", 2000)


@pytest.fixture(scope="session")
def space():
    return ParamSpace()


@pytest.fixture(scope="session")
def case1_path(spec):
    """One medium case-1 path reused by likelihood/estimator tests."""
    cfg = SimConfig(n=500, burn_in=4000, J=2000, seed=314)
    return simulate(spec, CASE1, cfg)


def _simulate_loop(spec, theta0, cfg):
    """The truncated recursion one step at a time: the oracle for the
    blocked simulator (same innovations, drawn here for the whole path at
    once, and the same dot product per step)."""
    if cfg.J is None:
        cfg = replace(cfg, J=spec.J)
    J = cfg.J
    total = cfg.burn_in + cfg.n
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    if isinstance(cfg.noise, str):
        eps = rng.standard_normal(total)
    else:
        eps = rng.choice(np.asarray(cfg.noise, dtype=float), size=total,
                         replace=True)
    b_rev = coeff_weights(spec, theta0, J)[::-1].copy()
    x = np.empty(total)
    sig = np.empty(total)
    a = theta0.a
    for t in range(total):
        k = min(J, t)
        s = a + (b_rev[J - k:] @ x[t - k:t]) if k else a
        sig[t] = s
        x[t] = eps[t] * s
    return Sample(x=x, sigma=sig, eps=eps, config=cfg)


def brute_zeta_tail(s, t0, terms=1_000_000):
    """Partial sum plus integral bracket midpoint; independent of scipy.

    Returns (estimate, half_bracket_width): the true tail of the summed
    series lies within half_bracket_width of the estimate.
    """
    j = np.arange(t0, t0 + terms, dtype=float)
    head = float(np.sum(j ** -s))
    T = float(t0 + terms)
    low = T ** (1.0 - s) / (s - 1.0)
    high = low * (T / (T - 1.0)) ** (s - 1.0)
    return head + 0.5 * (low + high), 0.5 * (high - low)
