"""Timing spans recorded from the benchmark's side of each module boundary.

The tracer replaces, for the duration of a traced call, the names through
which one module calls another (``larchpmle.montecarlo.simulate``,
``larchpmle.estimator.PathEvaluator``, ...) with wrappers that record a
span: name, start, end, parent, and the timed call and replicate it
belongs to.  Spans stay in memory and are written out when the run ends.
The library itself is not modified.
"""

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from larchpmle import asymptotics, estimator, montecarlo

# module of the package that each span name belongs to
MODULES = ("simulate", "likelihood", "estimator", "montecarlo", "asymptotics")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 for a root
    call: int              # timed call the span belongs to
    replicate: int         # replicate within the call, -1 outside one
    info: object = None    # count or outcome recorded at the boundary

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket one
    traced call so untraced calls run the unpatched library."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.call = 0
        self.replicate = -1

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.call,
                               self.replicate))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        span.info = info
        self._stack.pop()

    def wrap(self, name, fn, info=None, new_replicate=False):
        def traced(*args, **kwargs):
            if new_replicate:
                self.replicate += 1
            idx = self.enter(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.exit(idx, info(out) if info and out is not None else None)
        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, call: int) -> None:
        self.call, self.replicate = call, -1
        steps = lambda sample: len(sample.x)
        outcome = lambda res: (bool(res.converged), bool(res.at_boundary))
        self._patch(montecarlo, "simulate",
                    self.wrap("simulate.simulate", montecarlo.simulate,
                              steps, new_replicate=True))
        self._patch(montecarlo, "estimate",
                    self.wrap("estimator.estimate", montecarlo.estimate,
                              outcome))
        self._patch(asymptotics, "simulate",
                    self.wrap("simulate.simulate", asymptotics.simulate,
                              steps))
        self._patch(asymptotics, "sigma_and_gradient",
                    self.wrap("asymptotics.sigma_and_gradient",
                              asymptotics.sigma_and_gradient))
        tracer, base = self, estimator.PathEvaluator

        class TracedPathEvaluator(base):
            def __init__(self, *args, **kwargs):
                idx = tracer.enter("likelihood.setup")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.exit(idx)

            def __call__(self, *args, **kwargs):
                idx = tracer.enter("likelihood.eval")
                try:
                    return super().__call__(*args, **kwargs)
                finally:
                    tracer.exit(idx)

        self._patch(estimator, "PathEvaluator", TracedPathEvaluator)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(s.end - s.start - covered)
    return out


def _quantile(values, q) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(spans, calls: int) -> dict:
    """Per-layer metrics of ``calls`` traced calls.

    Counts and busy or self times are per timed call; a layer that did not
    run reports 0.  Self time of a span is its duration minus its children.
    """
    selfs = self_times(spans)
    dur = defaultdict(float)
    count = defaultdict(int)
    self_s = defaultdict(float)
    for s, own in zip(spans, selfs):
        dur[s.name] += s.end - s.start
        count[s.name] += 1
        self_s[s.name] += own
    steps = sum(s.info for s in spans if s.name == "simulate.simulate")
    fits = [s.info for s in spans
            if s.name == "estimator.estimate" and s.info is not None]
    replicates = defaultdict(list)
    for s in spans:
        if s.replicate >= 0 and s.parent >= 0 and \
                spans[s.parent].name == "montecarlo.run_study":
            replicates[(s.call, s.replicate)].append(s)
    rep_s = [max(s.end for s in g) - min(s.start for s in g)
             for g in replicates.values()]
    n_evals = count["likelihood.eval"]
    n_fits = count["estimator.estimate"]
    per = 1.0 / calls
    return {
        "simulate.calls": count["simulate.simulate"] * per,
        "simulate.busy_s": dur["simulate.simulate"] * per,
        "simulate.us_per_step": 1e6 * dur["simulate.simulate"] / steps
        if steps else 0.0,
        "likelihood.setup_s": dur["likelihood.setup"] * per,
        "likelihood.evals": n_evals * per,
        "likelihood.busy_s": (dur["likelihood.setup"]
                              + dur["likelihood.eval"]) * per,
        "likelihood.us_per_eval": 1e6 * dur["likelihood.eval"] / n_evals
        if n_evals else 0.0,
        "estimator.fits": n_fits * per,
        "estimator.busy_s": dur["estimator.estimate"] * per,
        "estimator.evals_per_fit": n_evals / n_fits if n_fits else 0.0,
        "estimator.converged_frac": sum(f[0] for f in fits) / len(fits)
        if fits else 0.0,
        "estimator.at_boundary_frac": sum(f[1] for f in fits) / len(fits)
        if fits else 0.0,
        "estimator.self_s": self_s["estimator.estimate"] * per,
        "montecarlo.replicate_s.p50": _quantile(rep_s, 0.5),
        "montecarlo.replicate_s.p90": _quantile(rep_s, 0.9),
        "montecarlo.self_s": self_s["montecarlo.run_study"] * per,
        "asymptotics.sigma_and_gradient_s":
            dur["asymptotics.sigma_and_gradient"] * per,
        "asymptotics.self_s": self_s["asymptotics.sandwich"] * per,
    }


def module_shares(spans) -> dict:
    """Share of the traced wall time spent in each module's own code."""
    own = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        own[s.module] += t
    total = sum(s.end - s.start for s in spans if s.parent < 0)
    return {m: own[m] / total if total else 0.0 for m in MODULES}


def grouped(spans, origin: float) -> list:
    """Spans as JSON-ready records grouped by (call, replicate), with times
    in seconds from ``origin``."""
    groups = defaultdict(list)
    for i, s in enumerate(spans):
        groups[(s.call, s.replicate)].append(
            [i, s.name, s.start - origin, s.end - origin, s.parent, s.info])
    return [{"call": c, "replicate": r, "spans": g}
            for (c, r), g in sorted(groups.items())]
