"""Box-constrained loss minimization for the LARCH pseudo-likelihood.

The search region is d in [0, d_u], c in [0, c_max(d)], a in [a_d, a_u].
Internally c is rescaled to u = c / c_max(d) so the optimizer moves in a
plain rectangle; a deterministic coarse grid seeds a small number of
Nelder-Mead simplex descents whose moves are clamped to the box.  Any
subset of the parameters can be frozen, which is how the single-parameter
profile fits used in the replication study are expressed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import CoeffSpec, ParamSpace, Theta
from .errors import DomainError, ValidationError, WindowError
from .likelihood import LossSpec, PathEvaluator

__all__ = ["OptimOptions", "EstimationResult", "minimize_box", "estimate"]

_AXES = ("d", "c", "a")


@dataclass(frozen=True)
class OptimOptions:
    """Multi-start simplex settings.

    ``grid_dims`` gives the coarse-grid resolution per axis (d, c, a);
    the best ``starts`` grid points seed independent simplex descents.
    """

    starts: int = 5
    grid_dims: tuple = (9, 9, 9)
    tol_x: float = 1e-5
    tol_f: float = 1e-9
    max_iter: int = 2000
    boundary_margin: float = 1e-4

    def __post_init__(self):
        if self.starts < 1:
            raise DomainError("starts must be >= 1")
        if len(self.grid_dims) != 3 or any(g < 1 for g in self.grid_dims):
            raise DomainError("grid_dims must be three positive counts")
        if self.tol_x <= 0 or self.tol_f <= 0:
            raise DomainError("tolerances must be positive")


@dataclass(frozen=True)
class EstimationResult:
    """Minimizer, its loss, and convergence/boundary diagnostics.

    ``evaluations`` counts the objective calls of the whole search, coarse
    grid included.
    """

    theta_hat: Theta
    loss_at_opt: float
    iterations: int
    converged: bool
    at_boundary: bool
    start_used: int
    evaluations: int
    variant: str | None = None


def _nelder_mead(f, x0, lo, hi, step, tol_x, tol_f, max_iter):
    """Simplex descent with box clamping; deterministic given its inputs.

    Returns (x_best, f_best, iterations, converged).
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

    iters = 0
    converged = False
    while iters < max_iter:
        pts, vals = order()
        diam = max(np.max(np.abs(p - pts[0])) for p in pts[1:])
        if vals[-1] - vals[0] <= tol_f and diam <= tol_x:
            converged = True
            break
        iters += 1
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
    return pts[0], vals[0], iters, converged


def _feasible_d_max(space, spec, c_fixed):
    """Largest d with c_max(d) >= c_fixed (c_max is decreasing in d)."""
    if space.c_max(0.0, spec) < c_fixed:
        raise ValidationError(f"fixed c = {c_fixed} exceeds c_max at d = 0")
    if space.c_max(space.d_u, spec) >= c_fixed:
        return space.d_u
    lo, hi = 0.0, space.d_u
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if space.c_max(mid, spec) >= c_fixed:
            lo = mid
        else:
            hi = mid
    return lo


def minimize_box(objective, space: ParamSpace, opts: OptimOptions | None = None,
                 spec: CoeffSpec | None = None, fix: dict | None = None,
                 ) -> EstimationResult:
    """Deterministic coarse-grid + simplex minimization over the box.

    ``objective`` maps a Theta to a value (a (value, gradient) pair is also
    accepted; the gradient is ignored by the simplex).  ``fix`` freezes a
    subset of {"d", "c", "a"} at given values; the grid and the descents
    then move in the free coordinates only.  The best ``opts.starts`` grid
    points seed simplex runs; the lowest final value wins, with ties broken
    by smallest d, then c, then a.  If no start converges the best point is
    still returned with ``converged=False``.
    """
    opts = opts or OptimOptions()
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
        if fix["c"] < 0.0:
            raise ValidationError("fixed c must be nonnegative")
        if "d" in fix and fix["c"] > space.c_max(fix["d"], spec):
            raise ValidationError("fixed (d, c) violates the scale bound")

    raw = objective
    evaluations = 0

    def fval(theta):
        nonlocal evaluations
        evaluations += 1
        out = raw(theta)
        v = out[0] if isinstance(out, tuple) else out
        v = float(v)
        return v if math.isfinite(v) else math.inf

    d_lo, d_hi = 0.0, space.d_u
    if "c" in fix and "d" not in fix:
        d_hi = _feasible_d_max(space, spec, fix["c"])
    if "c" not in fix and not math.isfinite(space.c_max(d_lo, spec)):
        # farima weights vanish at d = 0, making the c bound infinite;
        # nudge the free-d range off that degenerate edge
        d_lo = 1e-8

    # internal rectangle over the free axes; c is carried as u = c/c_max(d)
    bounds = {"d": (d_lo, d_hi), "c": (0.0, 1.0), "a": (space.a_d, space.a_u)}
    lo = np.array([bounds[k][0] for k in free])
    hi = np.array([bounds[k][1] for k in free])

    def to_theta(p):
        vals = dict(fix)
        for k, v in zip(free, p):
            vals[k] = float(v)
        if "c" in free:
            vals["c"] *= space.c_max(vals["d"], spec)
        return Theta(vals["d"], vals["c"], vals["a"])

    g = lambda t: fval(to_theta(t))

    dims = {k: opts.grid_dims[_AXES.index(k)] for k in free}
    axes = [np.linspace(bounds[k][0], bounds[k][1], dims[k]) for k in free]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    seeds = sorted(((g(p), tuple(p)) for p in mesh),
                   key=lambda s: (s[0],) + s[1])
    starts = seeds[: min(opts.starts, len(seeds))]

    steps = np.array([(bounds[k][1] - bounds[k][0]) / (2.0 * max(dims[k] - 1, 1))
                      for k in free])
    steps = np.maximum(steps, 10.0 * opts.tol_x)

    best = None
    for rank, (_, p0) in enumerate(starts):
        x, v, iters, conv = _nelder_mead(
            g, np.array(p0), lo, hi, steps, opts.tol_x, opts.tol_f,
            opts.max_iter)
        theta = to_theta(x)
        key = (v, theta.d, theta.c, theta.a)
        if best is None or key < best[0]:
            margin = opts.boundary_margin
            at_bnd = bool(np.any(x - lo <= margin) or np.any(hi - x <= margin))
            best = (key, theta, v, iters, conv, at_bnd, rank)
    _, theta, v, iters, conv, at_bnd, rank = best
    return EstimationResult(theta_hat=theta, loss_at_opt=v, iterations=iters,
                            converged=conv, at_boundary=at_bnd,
                            start_used=rank, evaluations=evaluations)


def estimate(lspec: LossSpec, spec: CoeffSpec, data,
             space: ParamSpace | None = None, opts: OptimOptions | None = None,
             fix: dict | None = None) -> EstimationResult:
    """Minimize the selected loss variant over the parameter box.

    ``data`` follows the same conventions as :func:`larchpmle.likelihood.loss`.
    ``fix`` freezes parameters at known values (profile estimation).
    Estimation requires a strictly positive regularization epsilon and a
    window of at least 10 points.  With d free, the evaluator tabulates the
    lag sums over [0, d_u] once, so each loss value the search takes costs
    a table lookup rather than a transform.
    """
    space = space or ParamSpace()
    if lspec.epsilon <= 0.0:
        raise ValidationError("estimation requires epsilon > 0")
    d_range = None if fix and "d" in fix else (0.0, space.d_u)
    ev = PathEvaluator(lspec, spec, data, d_range=d_range)
    if ev.w < 10:
        raise WindowError(f"window of {ev.w} points is too small to estimate")
    objective = lambda theta: ev(theta, derivatives=0).value
    res = minimize_box(objective, space, opts, spec=spec, fix=fix)
    return replace(res, variant=lspec.variant)
