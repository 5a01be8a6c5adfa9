import numpy as np
import pytest

from larchpmle import (
    CoeffSpec,
    LossSpec,
    ParamSpace,
    SimConfig,
    Theta,
    estimate,
    minimize_box,
    simulate,
)
from larchpmle.errors import DomainError, ValidationError, WindowError

from conftest import CASE1


def quadratic_about(target):
    t = target.as_array()
    return lambda th: float(np.sum((th.as_array() - t) ** 2))


class TestMinimizeBox:
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

    def test_fix_everything_rejected(self, spec, space):
        with pytest.raises(DomainError):
            minimize_box(lambda th: 0.0, space, spec=spec,
                         fix={"d": 0.1, "c": 0.2, "a": 1.0})

    def test_infeasible_fixed_c(self, spec, space):
        with pytest.raises(ValidationError):
            minimize_box(lambda th: 0.0, space, spec=spec, fix={"c": 0.95})

    def test_fixed_values_must_lie_in_box(self, spec, space):
        f = lambda th: th.d ** 2 + th.a ** 2
        with pytest.raises(ValidationError):
            minimize_box(f, space, spec=spec, fix={"a": 50.0})
        with pytest.raises(ValidationError):
            minimize_box(f, space, spec=spec, fix={"d": 0.6})
        with pytest.raises(ValidationError):
            minimize_box(f, space, spec=spec, fix={"d": 0.4, "c": 0.5})


class TestEstimate:
    def test_frozen_c_closed_form(self, spec):
        th0 = Theta(0.0, 0.0, 1.3)
        s = simulate(spec, th0, SimConfig(n=2000, burn_in=100, J=100, seed=5))
        res = estimate(LossSpec("bar", 0.01), spec, s.x_obs, fix={"c": 0.0})
        assert res.theta_hat.a == pytest.approx(
            np.sqrt(np.mean(s.x_obs ** 2)), abs=1e-6)
        assert res.variant == "bar"

    def test_epsilon_zero_rejected(self, spec, case1_path):
        with pytest.raises(ValidationError):
            estimate(LossSpec("bar", 0.0), spec, case1_path.x_obs)

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
        res = estimate(LossSpec("bar", 0.01), fspec, s.x_obs,
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
