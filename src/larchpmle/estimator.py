"""Box-constrained loss minimization for the LARCH pseudo-likelihood.

The search region is d in [0, d_u], c in [0, c_max(d)], a in [a_d, a_u].
A grid over the box seeds projected Newton searches driven by the exact
score and Hessian of the loss.  Any subset of the parameters can be
frozen, which is how the single-parameter profile fits used in the
replication study are expressed.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoeffSpec, ParamSpace, Theta
from .errors import DomainError, ValidationError, WindowError
from .likelihood import LossSpec, PathEvaluator

__all__ = ["EstimationResult", "estimate"]

_AXES = ("d", "c", "a")

# The one search recipe: grid points per free axis, Newton searches seeded
# from the best grid points, steps per search, the step and the projected
# gradient (both times the box width) that end a search as converged, the
# difference step of c_max's slope in d, and the box-edge distance called
# at_boundary.  A fit needs a window of at least _MIN_WINDOW points.
_GRID = 9
_SEEDS = 2
_MAX_STEPS = 50
_TOL_STEP = 1e-9
_TOL_GRAD = 1e-5
_SLOPE_STEP = 1e-6
_BOUNDARY_MARGIN = 1e-4
_MIN_WINDOW = 10


@dataclass(frozen=True)
class EstimationResult:
    """Minimizer, its loss, and convergence/boundary diagnostics.

    ``evaluations`` counts every theta at which the loss was taken, grid
    included; ``grid_s``/``newton_s`` time the two stages (not compared)."""

    theta_hat: Theta
    loss_at_opt: float
    converged: bool
    at_boundary: bool
    evaluations: int
    grid_s: float = field(default=0.0, compare=False)
    newton_s: float = field(default=0.0, compare=False)


def _feasible_d_max(space, c_max, c_fixed):
    """Largest d with c_max(d) >= c_fixed (c_max is decreasing in d)."""
    if c_max(0.0) < c_fixed:
        raise ValidationError(f"fixed c = {c_fixed} exceeds c_max at d = 0")
    if c_max(space.d_u) >= c_fixed:
        return space.d_u
    lo, hi = 0.0, space.d_u
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c_max(mid) >= c_fixed:
            lo = mid
        else:
            hi = mid
    return lo


def _search_box(space: ParamSpace, c_max, fix: dict | None):
    """Check ``fix`` against the box, ``c_max(d)`` giving c's bound; return
    it as a dict, the free axes, and the rectangle (lo, hi) over them with
    c carried as u = c/c_max(d)."""
    fix = dict(fix or {})
    for k in fix:
        if k not in _AXES:
            raise DomainError(f"unknown parameter {k!r} in fix")
    free = [k for k in _AXES if k not in fix]
    if not free:
        raise DomainError("at least one parameter must be free")
    if "d" in fix and not 0.0 <= fix["d"] <= space.d_u:
        raise ValidationError(f"fixed d = {fix['d']} outside [0, {space.d_u}]")
    if "a" in fix and not space.a_d <= fix["a"] <= space.a_u:
        raise ValidationError(f"fixed a = {fix['a']} outside the box")
    if "c" in fix:
        if not fix["c"] >= 0.0:
            raise ValidationError("fixed c must be nonnegative")
        if "d" in fix and fix["c"] > c_max(fix["d"]):
            raise ValidationError("fixed (d, c) violates the scale bound")
    elif "d" in fix and not math.isfinite(c_max(fix["d"])):
        raise ValidationError(f"c is not identified at fixed d = {fix['d']}, "
                              f"where the weights vanish")

    d_lo, d_hi = 0.0, space.d_u
    if "c" in fix and "d" not in fix:
        d_hi = _feasible_d_max(space, c_max, fix["c"])
    if "c" not in fix and not math.isfinite(c_max(d_lo)):
        # farima weights vanish at d = 0, making the c bound infinite;
        # nudge the free-d range off that degenerate edge
        d_lo = 1e-8
    bounds = {"d": (d_lo, d_hi), "c": (0.0, 1.0), "a": (space.a_d, space.a_u)}
    lo = np.array([bounds[k][0] for k in free])
    hi = np.array([bounds[k][1] for k in free])
    return fix, free, lo, hi


def _face_step(g, H, held, on_lo, on_up, D, width):
    """Newton step, or diagonally scaled gradient step where H is not
    positive definite, on the coordinates not ``held`` at a bound; held ones
    on a moving upper bound (rows of its Jacobian D) follow it.  Returns
    (step, held), held grown by the coordinates the step pushes out."""
    eye = np.eye(len(g))
    while True:
        m = ~held
        T = eye[:, m] + (held & on_up)[:, None] * D[:, m]
        gm, Hm = T.T @ g, T.T @ H @ T
        try:
            np.linalg.cholesky(Hm)
            pm = -np.linalg.solve(Hm, gm)
        except np.linalg.LinAlgError:
            scale = np.maximum(np.abs(np.diag(Hm)), np.abs(gm) / width[m])
            pm = -gm / np.maximum(scale, np.finfo(float).tiny)
        p = T @ pm
        out = m & ((on_lo & (p < 0)) | (on_up & (p > 0)))
        if not out.any():
            return p, held
        held = held | out


def _line_search(at, x, f, p, lo, upper, follow, tol):
    """(x, loss, score, Hessian) at the first halving of p, clipped to the
    box with ``follow`` on its upper bounds, below f; None within tol."""
    step = 1.0
    while True:
        z = x + step * p
        uz = upper(z)
        y = np.where(follow, uz, np.clip(z, lo, uz))
        if np.all(np.abs(y - x) <= tol):
            return None
        fy, gy, Hy = at(y)
        if fy < f:
            return y, fy, gy, Hy
        step *= 0.5


def _newton(at, x, lo, upper):
    """Projected Newton descent from x in the box [lo, upper(x)], ``at(x)``
    giving the loss, score and Hessian; c held at c_max(d) follows that
    edge.  A step is at most one box width, halved until the loss falls;
    off a stationary point a failed Newton step is followed by a scaled
    gradient step.  Returns (x, loss, converged): converged once no step
    beyond _TOL_STEP lowers the loss and the projected gradient is within
    _TOL_GRAD."""
    f, g, H = at(x)
    eye = np.eye(len(x))
    for _ in range(_MAX_STEPS):
        up = upper(x)
        width, on_lo, on_up = up - lo, x <= lo, x >= up
        D = np.zeros_like(H)           # Jacobian of upper, within the box
        for j, h in enumerate(_SLOPE_STEP * eye if on_up.any() else ()):
            xp, xm = np.minimum(x + h, up), np.maximum(x - h, lo)
            D[:, j] = (upper(xp) - upper(xm)) / (xp[j] - xm[j])
        pg = g + (on_up & (g < 0)) * g @ D       # the gradient on the face
        held = (on_lo & (pg > 0)) | (on_up & (pg < 0))
        stationary = np.all(np.abs(pg[~held]) * width[~held] <= _TOL_GRAD)
        for M in (H,) if stationary else (H, np.diag(np.abs(np.diag(H)))):
            p, hold = _face_step(g, M, held, on_lo, on_up, D, width)
            p /= max(1.0, np.max(np.abs(p) / width))
            found = _line_search(at, x, f, p, lo, upper, hold & on_up,
                                 _TOL_STEP * width)
            if found:
                break
        else:
            return x, f, bool(stationary)
        x, f, g, H = found
    return x, f, False


def estimate(lspec: LossSpec, spec: CoeffSpec, data,
             space: ParamSpace | None = None,
             fix: dict | None = None) -> EstimationResult:
    """Minimize the selected loss variant over the parameter box.

    ``data`` follows the same conventions as :func:`larchpmle.likelihood.loss`.
    ``fix`` freezes parameters at known values (profile estimation).
    Estimation requires a strictly positive regularization epsilon and a
    window of at least 10 points.

    The recipe is fixed (see the constants above): a grid on each free
    axis, c as the fraction u of c_max(d), with d free the lag sums from a
    table over [0, d_u]; its best points, ties broken by smallest d, u, a,
    each seed :func:`_newton` in theta.  The lower end wins, ties broken
    alike; ``at_boundary`` marks a minimizer within 1e-4 of the box edge
    in u.
    """
    space = space or ParamSpace()
    if lspec.epsilon <= 0.0:
        raise ValidationError("estimation requires epsilon > 0")
    bounds = {}

    def c_max(d):                  # a zeta evaluation, taken once per d
        if d not in bounds:
            bounds[d] = space.c_max(d, spec)
        return bounds[d]

    fix, free, lo, hi = _search_box(space, c_max, fix)
    d_free = "d" in free
    ev = PathEvaluator(lspec, spec, data,
                       d_range=(0.0, space.d_u) if d_free else None)
    if ev.w < _MIN_WINDOW:
        raise WindowError(f"window of {ev.w} points is too small to estimate")
    if not d_free:
        # taken once; the d-rows of the score and Hessian are never read
        v0 = ev.lag_sums(fix["d"], 0)[0]
        fixed_sums = (v0, np.zeros_like(v0), np.zeros_like(v0))

    # grid: one lag-sum row per d, all (c, a) pairs of that d at once
    t0 = time.perf_counter()
    axes = {k: np.linspace(l, h, _GRID) for k, l, h in zip(free, lo, hi)}
    d_axis = axes.get("d", [fix.get("d")])
    a_axis = axes.get("a", [fix.get("a")])
    c_axes = [axes["c"] * c_max(d) if "c" in axes else [fix["c"]]
              for d in d_axis]
    rows = (ev.lag_sums(d, 0)[0] if d_free else v0
            for d in d_axis)
    vals = np.array([ev.values(row, np.repeat(cs, len(a_axis)),
                               np.tile(a_axis, len(cs)))
                     for row, cs in zip(rows, c_axes)])
    evaluations = vals.size
    # the flat grid runs over (d, u, a) in lexicographic order, so a stable
    # sort (nan last) breaks ties by smallest d, then u, then a
    best = np.argsort(vals, axis=None, kind="stable")[:_SEEDS]
    shape = (len(d_axis), len(c_axes[0]), len(a_axis))
    starts = [np.array([v for k, v in zip(_AXES, (d_axis[i], c_axes[i][j],
                                                   a_axis[l])) if k in free])
              for i, j, l in zip(*np.unravel_index(best, shape))]
    t1 = time.perf_counter()

    idx = [_AXES.index(k) for k in free]

    def to_theta(x):
        named = dict(fix, **dict(zip(free, (float(v) for v in x))))
        return Theta(named["d"], named["c"], named["a"])

    def upper(x):                  # c's bound is c_max at x's d, clipped
        up = hi.copy()
        if "c" in free:
            up[free.index("c")] = c_max(min(max(x[0], lo[0]), hi[0])
                                        if d_free else fix["d"])
        return up

    def at(x):
        nonlocal evaluations
        evaluations += 1
        theta = to_theta(x)
        le = ev(theta) if d_free else ev.evaluate(theta, fixed_sums)
        return le.value, le.score[idx], le.hessian[np.ix_(idx, idx)]

    runs = [(f, to_theta(x), conv) for x, f, conv in
            (_newton(at, x0, lo, upper) for x0 in starts)]
    f, theta, conv = min(runs, key=lambda r: (r[0], r[1].d, r[1].c, r[1].a))
    t2 = time.perf_counter()

    x = np.array([theta.c / c_max(theta.d) if k == "c" else getattr(theta, k)
                  for k in free])
    at_bnd = bool(np.any(x - lo <= _BOUNDARY_MARGIN)
                  or np.any(hi - x <= _BOUNDARY_MARGIN))
    return EstimationResult(theta_hat=theta, loss_at_opt=f, converged=conv,
                            at_boundary=at_bnd, evaluations=evaluations,
                            grid_s=t1 - t0, newton_s=t2 - t1)
