"""Value-only multi-start Nelder-Mead over the estimation box: the slow
oracle that :func:`larchpmle.estimate`'s grid-plus-Newton search is
checked against.

The recipe is the one the package used before its fits took the exact
score and Hessian: a 9-point grid on each free axis, the best 5 grid
points seeding simplex runs (tolerances 1e-5 in position and 1e-9 in
value, at most 2000 iterations each), c carried as u = c / c_max(d); the
lowest final value wins, ties broken by smallest d, then c, then a.
"""

import math

import numpy as np

from larchpmle import EstimationResult, ParamSpace, Theta
from larchpmle.estimator import _BOUNDARY_MARGIN, _GRID, _search_box

_STARTS = 5
_TOL_X = 1e-5
_TOL_F = 1e-9
_MAX_ITER = 2000


def _nelder_mead(f, x0, lo, hi, step):
    """Simplex descent with box clamping; deterministic given its inputs.

    Returns (x_best, f_best, converged).
    """
    dim = len(x0)
    clamp = lambda p: np.minimum(np.maximum(p, lo), hi)

    pts = [clamp(np.array(x0, dtype=float))]
    for i in range(dim):
        p = pts[0].copy()
        h = step[i] if p[i] + step[i] <= hi[i] else -step[i]
        p[i] = min(max(p[i] + h, lo[i]), hi[i])
        pts.append(p)
    vals = [f(p) for p in pts]

    def order():
        idx = sorted(range(dim + 1), key=lambda k: (vals[k], tuple(pts[k])))
        return [pts[k] for k in idx], [vals[k] for k in idx]

    converged = False
    for _ in range(_MAX_ITER):
        pts, vals = order()
        diam = max(np.max(np.abs(p - pts[0])) for p in pts[1:])
        if vals[-1] - vals[0] <= _TOL_F and diam <= _TOL_X:
            converged = True
            break
        centroid = np.mean(pts[:-1], axis=0)
        xr = clamp(centroid + (centroid - pts[-1]))
        fr = f(xr)
        if vals[0] <= fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
            continue
        if fr < vals[0]:
            xe = clamp(centroid + 2.0 * (centroid - pts[-1]))
            fe = f(xe)
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
            continue
        if fr < vals[-1]:                       # outside contraction
            xc = clamp(centroid + 0.5 * (xr - centroid))
        else:                                   # inside contraction
            xc = clamp(centroid - 0.5 * (centroid - pts[-1]))
        fc = f(xc)
        if fc < min(fr, vals[-1]):
            pts[-1], vals[-1] = xc, fc
            continue
        # shrink toward the best vertex
        for k in range(1, dim + 1):
            pts[k] = clamp(pts[0] + 0.5 * (pts[k] - pts[0]))
            vals[k] = f(pts[k])
    pts, vals = order()
    return pts[0], vals[0], converged


def minimize_box(objective, space: ParamSpace, spec=None,
                 fix: dict | None = None) -> EstimationResult:
    """Grid-seeded simplex minimization of ``objective`` (a Theta to a
    value) over the box, with ``fix`` freezing a subset of {"d", "c", "a"}
    as in :func:`larchpmle.estimate`."""
    fix, free, lo, hi = _search_box(space, lambda d: space.c_max(d, spec),
                                    fix)
    evaluations = 0

    def to_theta(p):
        vals = dict(fix)
        for k, v in zip(free, p):
            vals[k] = float(v)
        if "c" in free:
            vals["c"] *= space.c_max(vals["d"], spec)
        return Theta(vals["d"], vals["c"], vals["a"])

    def g(p):
        nonlocal evaluations
        evaluations += 1
        v = float(objective(to_theta(p)))
        return v if math.isfinite(v) else math.inf

    axes = [np.linspace(lo_k, hi_k, _GRID) for lo_k, hi_k in zip(lo, hi)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    seeds = sorted(((g(p), tuple(p)) for p in mesh),
                   key=lambda s: (s[0],) + s[1])

    steps = np.maximum((hi - lo) / (2.0 * (_GRID - 1)), 10.0 * _TOL_X)
    runs = []
    for _, p0 in seeds[:_STARTS]:
        x, v, conv = _nelder_mead(g, np.array(p0), lo, hi, steps)
        runs.append((v, to_theta(x), x, conv))
    v, theta, x, conv = min(runs, key=lambda r: (r[0], r[1].d, r[1].c, r[1].a))
    at_bnd = bool(np.any(x - lo <= _BOUNDARY_MARGIN)
                  or np.any(hi - x <= _BOUNDARY_MARGIN))
    return EstimationResult(theta_hat=theta, loss_at_opt=v, converged=conv,
                            at_boundary=at_bnd, evaluations=evaluations)
