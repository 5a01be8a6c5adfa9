import math

import numpy as np
import pytest

from larchpmle import (
    CoeffSpec,
    LossSpec,
    ParamSpace,
    SimConfig,
    Theta,
    derive_seed,
    estimate,
    simulate,
)
from larchpmle import estimator
from larchpmle.likelihood import PathEvaluator
from larchpmle.errors import DomainError, ValidationError, WindowError

from conftest import CASE1, CASE1_BETA, scipy_oracle
from nelder_mead import minimize_box

LSPEC = LossSpec("trunc", 0.01, beta=CASE1_BETA)


def quadratic_about(target):
    t = target.as_array()
    return lambda th: float(np.sum((th.as_array() - t) ** 2))


class TestMinimizeBox:
    """The value-only Nelder-Mead oracle of tests/nelder_mead.py."""

    def test_interior_quadratic(self, spec, space):
        target = Theta(0.2, 0.3, 1.5)
        res = minimize_box(quadratic_about(target), space, spec=spec)
        assert res.converged and not res.at_boundary
        assert res.theta_hat.as_array() == pytest.approx(target.as_array(),
                                                         abs=1e-4)

    def test_exterior_minimizer_clamps(self, spec, space):
        res = minimize_box(quadratic_about(Theta(0.6, 0.1, 1.0)), space,
                           spec=spec)
        assert res.at_boundary
        assert res.theta_hat.d == pytest.approx(space.d_u, abs=1e-6)

    def test_multimodal_1d_grid_oracle(self, spec, space):
        # wiggly 1-d objective in a; dense-grid oracle locates the optimum
        f = lambda th: 0.05 * (th.a - 7.0) ** 2 + np.sin(2.0 * th.a) ** 2
        grid = np.linspace(space.a_d, space.a_u, 200_001)
        vals = 0.05 * (grid - 7.0) ** 2 + np.sin(2.0 * grid) ** 2
        oracle = grid[np.argmin(vals)]
        res = minimize_box(f, space, spec=spec, fix={"d": 0.1, "c": 0.2})
        assert res.theta_hat.a == pytest.approx(oracle, abs=1e-3)

    def test_deterministic(self, spec, space):
        f = lambda th: (th.d - 0.17) ** 2 + np.cos(5 * th.a) * 0.1 \
            + (th.c - 0.1) ** 2
        r1 = minimize_box(f, space, spec=spec)
        r2 = minimize_box(f, space, spec=spec)
        assert r1 == r2

    def test_opt_below_all_grid_seeds(self, spec, space):
        f = lambda th: (th.d - 0.21) ** 2 + (th.c - 0.33) ** 2 \
            + np.sin(th.a) ** 2
        res = minimize_box(f, space, spec=spec)
        for d in np.linspace(0.0, space.d_u, 9):
            for u in np.linspace(0.0, 1.0, 9):
                for a in np.linspace(space.a_d, space.a_u, 9):
                    th = Theta(d, u * space.c_max(d, spec), a)
                    assert res.loss_at_opt <= f(th) + 1e-12

    @pytest.mark.parametrize("fix", [None, {"c": 0.2, "a": 1.0}])
    def test_evaluations_counted(self, spec, space, fix):
        f = quadratic_about(Theta(0.2, 0.3, 1.5))
        calls = []
        res = minimize_box(lambda th: calls.append(th) or f(th), space,
                           spec=spec, fix=fix)
        grid = 9 if fix else 9 ** 3
        assert res.evaluations == len(calls) > grid

    # fix validation lives in estimate, which the oracle shares
    def test_fix_everything_rejected(self, spec, space, case1_path):
        with pytest.raises(DomainError):
            estimate(LSPEC, spec, case1_path.x_obs, space=space,
                     fix={"d": 0.1, "c": 0.2, "a": 1.0})

    def test_infeasible_fixed_c(self, spec, space, case1_path):
        with pytest.raises(ValidationError):
            estimate(LSPEC, spec, case1_path.x_obs, space=space,
                     fix={"c": 0.95})

    def test_fixed_values_must_lie_in_box(self, spec, space, case1_path):
        for fix in ({"a": 50.0}, {"d": 0.6}, {"d": 0.4, "c": 0.5},
                    {"c": math.nan}, {"d": 0.1, "c": math.nan}):
            with pytest.raises(ValidationError):
                estimate(LSPEC, spec, case1_path.x_obs, space=space, fix=fix)

    @pytest.mark.parametrize("fix", [{"d": 0.0}, {"d": 0.0, "a": 1.0}])
    def test_farima_c_unidentified_at_zero_d(self, farima_spec, space,
                                            case1_path, fix):
        # the farima weights vanish at d = 0, leaving c without a bound
        with pytest.raises(ValidationError, match="not identified"):
            estimate(LSPEC, farima_spec, case1_path.x_obs, space=space,
                     fix=fix)


def quadratic(target, H, calls=None):
    """at(x) of 0.5 (x - target)' H (x - target) with its exact gradient
    and Hessian; each call is appended to ``calls`` when given."""
    target, H = np.asarray(target, dtype=float), np.asarray(H, dtype=float)

    def at(x):
        if calls is not None:
            calls.append(x)
        r = x - target
        return 0.5 * r @ H @ r, H @ r, H
    return at


# Hessian of a joint fit's loss (d, c, a) at n = 1000: strongly coupled
H_JOINT = np.array([[10.058, 14.418, -6.563],
                    [14.418, 23.219, -9.242],
                    [-6.563, -9.242, 5.241]])


def edge_box(spec, space):
    """The estimation box in (d, c, a), c's upper bound c_max(d) moving
    with d: (lo, upper) as estimate passes them to _newton."""
    # farima's c_max(0) is infinite: d starts just above 0, as in estimate
    d_lo = 0.0 if spec.family == "power" else 1e-8
    lo = np.array([d_lo, 0.0, space.a_d])

    def upper(x):
        d = min(max(x[0], d_lo), space.d_u)
        return np.array([space.d_u, space.c_max(d, spec), space.a_u])
    return lo, upper


def slsqp_oracle(at, x0, spec, space):
    """The box-and-edge minimizer by scipy's SLSQP, an independent oracle;
    c's box bound is c_max(0), its constraint c <= c_max(d)."""
    minimize = scipy_oracle("scipy.optimize").minimize
    lo, upper = edge_box(spec, space)
    edge = {"type": "ineq", "fun": lambda x: upper(x)[1] - x[1]}
    res = minimize(lambda x: at(x)[0], x0, jac=lambda x: at(x)[1],
                   method="SLSQP", bounds=list(zip(lo, upper(lo))),
                   constraints=[edge], options={"ftol": 1e-15,
                                                "maxiter": 500})
    assert res.success
    return res.x, res.fun


class TestNewton:
    """The projected Newton search that estimate runs from its grid seeds,
    on quadratics with exact derivatives."""

    def test_interior_quadratic(self, spec, space):
        lo, upper = edge_box(spec, space)
        target = np.array([0.2, 0.3, 1.5])
        calls = []
        x, f, conv = estimator._newton(quadratic(target, H_JOINT, calls),
                                       np.array([0.4, 0.05, 5.0]), lo,
                                       upper)
        assert conv
        np.testing.assert_allclose(x, target, atol=1e-12)
        assert np.all(x > lo) and np.all(x < upper(x))
        # one Newton step lands on the minimum; the next one is null
        assert len(calls) == 2

    def test_exterior_minimizer_clamps(self, spec, space):
        lo, upper = edge_box(spec, space)
        at = quadratic([0.6, 0.1, 1.0], H_JOINT)
        x0 = np.array([0.1, 0.2, 1.0])
        x, f, conv = estimator._newton(at, x0, lo, upper)
        ref, f_ref = slsqp_oracle(at, x0, spec, space)
        assert conv
        assert x[0] == space.d_u
        assert f <= f_ref + 1e-12
        np.testing.assert_allclose(x, ref, atol=1e-6)

    @pytest.mark.parametrize("family, target, x0", [
        ("power", [0.42, 0.5, 1.2], [0.1, None, 1.0]),
        ("power", [0.3, 0.9, 0.8], [0.0, 0.1, 5.0]),
        # farima's c_max(d) is convex at small d: a step along its tangent
        # leaves the edge, and is put back on it
        ("farima", [0.3, 5.0, 1.0], [0.05, None, 1.0]),
    ], ids=["along-edge", "onto-edge", "farima-along-edge"])
    def test_minimum_beyond_c_max_edge(self, space, family, target, x0):
        spec = CoeffSpec(family, 2000)
        lo, upper = edge_box(spec, space)
        at = quadratic(target, H_JOINT)
        x0 = np.array([x0[0], space.c_max(x0[0], spec) if x0[1] is None
                       else x0[1], x0[2]])
        x, f, conv = estimator._newton(at, x0, lo, upper)
        ref, f_ref = slsqp_oracle(at, x0, spec, space)
        assert conv
        assert x[1] == space.c_max(x[0], spec)
        assert f <= f_ref + 1e-12
        np.testing.assert_allclose(x, ref, atol=1e-5)

    def test_corner_start_with_inward_gradient(self, spec, space):
        # a real joint fit's start at d = d_u, c = c_max(d_u): the gradient
        # points into the box, while the Newton step pushes c, and then d,
        # out of it
        lo, upper = edge_box(spec, space)
        x0 = np.array([space.d_u, space.c_max(space.d_u, spec), 1.25427381])
        g0 = np.array([0.286510916, 0.347778007, -8.37e-9])
        at = quadratic(x0 - np.linalg.solve(H_JOINT, g0), H_JOINT)
        x, f, conv = estimator._newton(at, x0, lo, upper)
        ref, f_ref = slsqp_oracle(at, x0, spec, space)
        assert conv
        assert f <= f_ref + 1e-12
        np.testing.assert_allclose(x, ref, atol=1e-5)

    def test_no_descent_is_not_converged(self, spec, space):
        # a gradient that no step can follow: the value never falls
        lo, upper = edge_box(spec, space)
        at = lambda x: (0.0, np.array([1.0, 0.0, 0.0]), np.eye(3))
        x0 = np.array([0.2, 0.1, 1.0])
        x, f, conv = estimator._newton(at, x0, lo, upper)
        assert not conv
        np.testing.assert_array_equal(x, x0)


class TestEstimate:
    def test_frozen_c_closed_form(self, spec):
        th0 = Theta(0.0, 0.0, 1.3)
        s = simulate(spec, th0, SimConfig(n=2000, burn_in=100, J=100, seed=5))
        res = estimate(LossSpec("trunc", 0.01, beta=1.0), spec, s.x_obs,
                       fix={"c": 0.0})
        assert res.theta_hat.a == pytest.approx(
            np.sqrt(np.mean(s.x_obs ** 2)), abs=1e-6)

    def test_epsilon_zero_rejected(self, spec, case1_path):
        with pytest.raises(ValidationError):
            estimate(LossSpec("trunc", 0.0, beta=1.0), spec,
                     case1_path.x_obs)

    def test_tiny_window_rejected(self, spec):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(12)
        with pytest.raises(WindowError):
            estimate(LossSpec("trunc", 0.01, beta=0.5), spec, x)

    def test_profile_estimate_near_truth(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=4000, burn_in=10_000, J=2000,
                                            seed=77))
        res = estimate(LossSpec("trunc", 0.01, beta=0.799), spec, s.x_obs,
                       fix={"c": CASE1.c, "a": CASE1.a})
        assert res.converged
        assert res.theta_hat.c == CASE1.c and res.theta_hat.a == CASE1.a
        assert abs(res.theta_hat.d - CASE1.d) < 0.15

    def test_farima_family_estimates(self, farima_spec):
        fspec = CoeffSpec("farima", 500)
        th0 = Theta(0.25, 0.4, 1.0)
        s = simulate(fspec, th0, SimConfig(n=1200, burn_in=3000, J=500,
                                           seed=20))
        res = estimate(LossSpec("trunc", 0.01, beta=1.0), fspec, s.x_obs,
                       fix={"c": th0.c, "a": th0.a})
        assert res.converged
        assert abs(res.theta_hat.d - th0.d) < 0.1
        joint = estimate(LossSpec("trunc", 0.01, beta=0.8), fspec, s.x_obs)
        assert joint.converged

    def test_joint_estimate_reproducible(self, spec):
        s = simulate(spec, CASE1, SimConfig(n=1500, burn_in=4000, J=2000,
                                            seed=13))
        lspec = LossSpec("trunc", 0.01, beta=0.799)
        r1 = estimate(lspec, spec, s.x_obs)
        r2 = estimate(lspec, spec, s.x_obs)
        assert r1 == r2
        assert r1.theta_hat.c <= ParamSpace().c_max(r1.theta_hat.d, spec)

    @pytest.mark.parametrize("family, fix", [
        ("power", None), ("farima", None), ("power", {"c": CASE1.c}),
        ("power", {"d": 0.2, "a": CASE1.a})])
    def test_c_max_taken_once_per_d(self, family, fix, monkeypatch):
        # each bound is a Hurwitz-zeta evaluation: a fit takes it once per
        # distinct d, the grid's nine included when d is free
        spec = CoeffSpec(family, 2000)
        x = simulate(spec, CASE1, SimConfig(n=1000, burn_in=10_000, J=2000,
                                            seed=4)).x_obs
        calls, c_max = [], ParamSpace.c_max
        monkeypatch.setattr(ParamSpace, "c_max", lambda self, d, spec:
                            calls.append(d) or c_max(self, d, spec))
        estimate(LSPEC, spec, x, fix=fix)
        assert len(calls) == len(set(calls))
        if fix is None:
            lo = 1e-8 if family == "farima" else 0.0
            assert set(np.linspace(lo, 0.45, 9)) <= set(calls)
        elif "d" in fix:
            assert 0.2 in calls

    @pytest.mark.parametrize("fix", [{"c": CASE1.c, "a": CASE1.a}, None],
                             ids=["d-only", "joint"])
    def test_evaluations_and_stage_timings(self, spec, case1_path, fix,
                                           monkeypatch):
        calls = []
        newton = estimator._newton
        monkeypatch.setattr(
            estimator, "_newton",
            lambda at, *args: newton(lambda x: calls.append(x) or at(x),
                                     *args))
        res = estimate(LSPEC, spec, case1_path.x_obs, fix=fix)
        grid = 9 if fix else 9 ** 3
        # every grid point counts, then every point of the Newton searches
        assert len(calls) > 2
        assert res.evaluations == grid + len(calls)
        assert res.grid_s > 0.0 and res.newton_s > 0.0

    @pytest.mark.parametrize("seed, fix, edge", [
        (3, None, True), (3, {"c": CASE1.c, "a": CASE1.a}, True),
        (8, None, False), (8, {"c": CASE1.c, "a": CASE1.a}, False)])
    def test_at_boundary(self, spec, space, seed, fix, edge):
        x = simulate(spec, CASE1, SimConfig(n=1000, burn_in=10_000, J=2000,
                                            seed=derive_seed(43, seed))).x_obs
        res = estimate(LSPEC, spec, x, space=space, fix=fix)
        assert res.converged
        assert res.at_boundary is edge
        assert (res.theta_hat.d == 0.0) is edge

    def test_loss_below_every_grid_point(self, spec, space, case1_path):
        res = estimate(LSPEC, spec, case1_path.x_obs, space=space)
        fft = PathEvaluator(LSPEC, spec, case1_path.x_obs)
        grid = np.linspace(0.0, 1.0, 9)
        for d in np.linspace(0.0, space.d_u, 9):
            v0 = fft.lag_sums(d, 0)[0]
            c = np.repeat(grid * space.c_max(d, spec), 9)
            a = np.tile(np.linspace(space.a_d, space.a_u, 9), 9)
            assert res.loss_at_opt <= fft.values(v0, c, a).min() + 1e-12


def _oracle_fit(spec, space, x, fix):
    """The Nelder-Mead oracle on the FFT path's loss values."""
    fft = PathEvaluator(LSPEC, spec, x)
    return minimize_box(lambda th: fft(th, derivatives=0).value, space,
                        spec=spec, fix=fix)


class TestNewtonAgainstNelderMead:
    """The grid-plus-Newton fit lands where the value-only multi-start
    Nelder-Mead does, at a loss no higher."""

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_profile_fit(self, spec, space, n):
        fix = {"c": CASE1.c, "a": CASE1.a}
        for r in range(10):
            x = simulate(spec, CASE1, SimConfig(n=n, burn_in=10_000, J=2000,
                                                seed=derive_seed(42, r))).x_obs
            res = estimate(LSPEC, spec, x, space=space, fix=fix)
            ref = _oracle_fit(spec, space, x, fix)
            assert abs(res.theta_hat.d - ref.theta_hat.d) <= 1e-4
            assert res.loss_at_opt <= ref.loss_at_opt + 1e-9 * abs(
                ref.loss_at_opt)

    def test_joint_fit(self, spec, space):
        for r in range(5):
            x = simulate(spec, CASE1, SimConfig(n=1000, burn_in=10_000,
                                                J=2000,
                                                seed=derive_seed(43, r))).x_obs
            res = estimate(LSPEC, spec, x, space=space)
            ref = _oracle_fit(spec, space, x, None)
            assert res.loss_at_opt <= ref.loss_at_opt + 1e-9 * abs(
                ref.loss_at_opt)
            assert space.contains(res.theta_hat, spec)
