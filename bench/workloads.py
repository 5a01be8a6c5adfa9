"""The benchmark's workloads: what one timed call runs and how its output
is checked.

Each workload drives the package through a public entry point
(``run_study`` or ``sandwich``).  A run repeats the timed call on
``inputs_per_run`` inputs taken in turn.  Input 0 uses the workload seed
itself, so at the default seed it repeats the acceptance runs; input
j > 0 uses a seed derived from (seed, j).  Checks run outside the timed
region.
"""

import math
from time import perf_counter

import numpy as np

from larchpmle import (
    CoeffSpec,
    LarchError,
    LossSpec,
    SimConfig,
    Theta,
    case_study,
    derive_seed,
    gaussian_moments,
    loss,
    run_study,
    sandwich,
    simulate,
)
from larchpmle.likelihood import PathEvaluator

SPEC = CoeffSpec("power", 2000)
CASE1 = Theta(0.1, 0.2, 1.0)
# acceptance criterion 4: case-1 asymptotic sd of d is 1.68 +- 0.15
SD_D_TARGET, SD_D_TOL = 1.68, 0.15
# a replicate whose d estimate differs from the reference by more than
# this counts as moved (a count, not a failure)
MOVED_TOL = 1e-4
# the reported loss must equal a fresh evaluation at theta_hat to this
# relative tolerance, and may exceed the loss at theta0 by no more
LOSS_RTOL = 1e-9
# G and H must match the reference to this relative tolerance
REF_RTOL = 1e-9


def input_seed(seed: int, j: int) -> int:
    """Seed of input j in a run with the given workload seed."""
    if j == 0:
        return seed
    return int(np.random.SeedSequence((seed, j)).generate_state(1)[0])


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * float(np.median(times))


class Study:
    """``run_study`` on case 1 at one sample size; one call runs
    ``replicates`` replicates in one process."""

    root = "montecarlo.run_study"
    default_seed = 42

    def __init__(self, name, n, params, replicates, inputs_per_run):
        self.name, self.n, self.params = name, n, params
        self.replicates, self.inputs_per_run = replicates, inputs_per_run

    def inputs(self, seed: int, j: int):
        return case_study(1, n_values=(self.n,), replicates=self.replicates,
                          base_seed=input_seed(seed, j), trim=0,
                          estimate_params=self.params)

    def call(self, cfg):
        return run_study(cfg, workers=1)

    def check(self, cfg, report, reference):
        """One verdict per requested replicate (None when it passes), plus
        the number of replicates compared with the reference and moved."""
        rows = {(row.n, row.replicate): row for row in report.rows}
        verdicts = [self._check_row(cfg, rows.get((cfg.n_values[0], r)))
                    for r in range(cfg.replicates)]
        compared = moved = 0
        if reference is not None:
            for r, d_ref in enumerate(reference):
                row = rows.get((cfg.n_values[0], r))
                if row is not None:
                    compared += 1
                    moved += abs(row.d_hat - d_ref) > MOVED_TOL
        return verdicts, compared, moved

    def reference_values(self, report):
        return [row.d_hat for row in report.rows]

    def _check_row(self, cfg, row):
        if row is None:
            return "missing row"
        vals = (row.d_hat, row.c_hat, row.a_hat, row.loss)
        if not all(math.isfinite(v) for v in vals):
            return f"non-finite row {vals}"
        theta = Theta(row.d_hat, row.c_hat, row.a_hat)
        if not cfg.space.contains(theta, cfg.spec):
            return f"{theta} outside the box"
        if cfg.estimate_params == "d" and (row.c_hat, row.a_hat) != (
                cfg.theta0.c, cfg.theta0.a):
            return f"profile fit moved a fixed parameter: {theta}"
        lspec = LossSpec("trunc", cfg.epsilon, beta=cfg.beta)
        try:
            x = self.path(cfg, row.seed)
            at_hat = loss(lspec, cfg.spec, theta, x, derivatives=0).value
            at_truth = loss(lspec, cfg.spec, cfg.theta0, x,
                            derivatives=0).value
        except LarchError as exc:
            return f"re-evaluation failed: {type(exc).__name__}: {exc}"
        if abs(at_hat - row.loss) > LOSS_RTOL * (1.0 + abs(row.loss)):
            return f"reported loss {row.loss!r} != loss at theta_hat {at_hat!r}"
        if at_hat > at_truth + LOSS_RTOL * abs(at_truth):
            return f"loss at theta_hat {at_hat!r} > loss at theta0 {at_truth!r}"
        return None

    def path(self, cfg, seed):
        sim = SimConfig(n=self.n, burn_in=cfg.burn_in,
                        J=cfg.J if cfg.J is not None else cfg.spec.J,
                        seed=seed)
        return simulate(cfg.spec, cfg.theta0, sim, space=cfg.space).x_obs

    def eval_ms(self, cfg, repeats=30):
        """Median time of one loss evaluation at theta0 on the call's first
        path, for derivative orders 0, 1 and 2."""
        x = self.path(cfg, derive_seed(cfg.base_seed, 0))
        ev = PathEvaluator(LossSpec("trunc", cfg.epsilon, beta=cfg.beta),
                           cfg.spec, x)
        return {k: _median_ms(lambda: ev(cfg.theta0, derivatives=k), repeats)
                for k in (0, 1, 2)}


class Sandwich:
    """``sandwich`` for case 1 on one 510k-step path; one call counts as
    one replicate."""

    root = "asymptotics.sandwich"
    default_seed = 2
    replicates = 1
    # the work does not depend on the seed, so one input repeated suffices
    inputs_per_run = 1

    def __init__(self, name):
        self.name = name

    def inputs(self, seed: int, j: int):
        return input_seed(seed, j)

    def call(self, seed):
        return sandwich(SPEC, CASE1, 0.01, gaussian_moments(8),
                        path_length=500_000, seed=seed)

    def check(self, seed, res, reference):
        verdict = None
        arrays = (res.G, res.H, res.sd)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            verdict = "non-finite G, H or sd"
        elif min(np.linalg.eigvalsh(res.G)[0],
                 np.linalg.eigvalsh(res.H)[0]) <= 0.0:
            verdict = "G or H is not positive definite"
        elif abs(res.sd[0] - SD_D_TARGET) > SD_D_TOL:
            verdict = f"sd_d = {res.sd[0]!r} outside {SD_D_TARGET} +- {SD_D_TOL}"
        elif reference is not None and not all(
                np.allclose(getattr(res, k), reference[k], rtol=REF_RTOL,
                            atol=0.0) for k in ("G", "H")):
            verdict = "G or H differs from the reference"
        return [verdict], int(reference is not None), 0

    def reference_values(self, res):
        return {"G": res.G.tolist(), "H": res.H.tolist()}

    def eval_ms(self, seed):
        """No loss is evaluated in this workload."""
        return {0: 0.0, 1: 0.0, 2: 0.0}


# Why each workload is in the benchmark is recorded in BENCHMARK.json.  The
# sizes keep one call short (0.1-3 s) so that a run of run_seconds holds
# several calls; d_n1000 runs four replicates per call so that the
# study's summary step is exercised.
WORKLOADS = {w.name: w for w in (
    Study("study_d_n1000", 1000, "d", 4, 8),
    Study("study_d_n10000", 10_000, "d", 1, 12),
    Study("study_joint_n10000", 10_000, "dca", 1, 8),
    Sandwich("sandwich_case1"),
)}
