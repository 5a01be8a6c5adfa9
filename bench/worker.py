"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last line of output.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only] [--spans FILE]

The process does its set-up (interpreter start, ``import larchpmle``, the
first call's inputs) and prints the monotonic clock reading at which the
first timed call starts, so that the parent can time set-up from before
it started the process.  With ``--setup-only`` it stops there.

A run repeats the timed call, taking the workload's inputs in turn,
until ``--seconds`` have passed; at least one call runs.  With
``--trace 1`` every call runs twice, untraced and traced, in alternating
order, so the tracing overhead is measured on equal work.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent


def run_calls(wl, seed: int, seconds: float, trace: bool, tracer=None):
    """Timed calls of one workload until ``seconds`` have passed.

    Call n takes input n mod ``inputs_per_run``; at least one call runs.
    Returns (samples, outputs): per call a sample dict and its output
    (None if it raised); an exception from a call is recorded in its
    sample and fails all of its replicates.
    """
    inputs = {}
    samples, outputs = [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        j = n % wl.inputs_per_run
        if j not in inputs:
            inputs[j] = wl.inputs(seed, j)
        modes = (bool(n % 2), not n % 2) if trace else (False,)
        for traced in modes:
            if traced:
                tracer.install(n)
                root = tracer.enter(wl.root)
            error, out = None, None
            t0 = time.perf_counter()
            try:
                out = wl.call(inputs[j])
            except Exception as exc:  # a failing call is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if traced:
                tracer.exit(root)
                tracer.uninstall()
            samples.append({"call": n, "input": j, "traced": traced,
                            "wall_s": wall, "error": error})
            outputs.append(out)
        n += 1
    return samples, outputs


def check_outputs(wl, seed, samples, outputs, reference):
    """Check the first output of each input in full, and every repeat of
    an input for equality with its first output."""
    attempted = failed = compared = moved = 0
    problems = []
    first = {}
    for s, out in zip(samples, outputs):
        j = s["input"]
        attempted += wl.replicates
        if out is None:
            verdicts = [f"raised {s['error']}"] * wl.replicates
        elif j not in first:
            ref = reference[j] if reference and j < len(reference) else None
            verdicts, c, m = wl.check(wl.inputs(seed, j), out, ref)
            compared, moved = compared + c, moved + m
            first[j] = (wl.reference_values(out), verdicts)
        elif wl.reference_values(out) != first[j][0]:
            verdicts = ["differs from the first call on the same input"] \
                * wl.replicates
        else:
            verdicts = first[j][1]
        for r, v in enumerate(verdicts):
            if v is not None:
                failed += 1
                problems.append(f"input {j} replicate {r}: {v}")
    return {"attempted": attempted, "failed": failed, "compared": compared,
            "moved": moved, "problems": problems[:20]}


def overhead_frac(samples) -> float:
    """Median over calls of traced / untraced wall time, minus one."""
    pairs = {}
    for s in samples:
        pairs.setdefault(s["call"], {})[s["traced"]] = s["wall_s"]
    return median(p[True] / p[False] for p in pairs.values()) - 1.0


def load_reference(wl, seed):
    if seed != wl.default_seed:
        return None
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)["workloads"].get(wl.name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    import larchpmle
    src = BENCH.parent / "src"
    if not Path(larchpmle.__file__).resolve().is_relative_to(src):
        print(f"larchpmle imported from {larchpmle.__file__}, not {src}",
              file=sys.stderr)
        return 3
    import numpy
    import scipy
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wl.inputs(args.seed, 0)
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    origin = time.perf_counter()
    samples, outputs = run_calls(wl, args.seed, args.seconds,
                                 bool(args.trace), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = check_outputs(wl, args.seed, samples, outputs,
                           load_reference(wl, args.seed))
    result = {
        "t_first": t_first,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "larchpmle": larchpmle.__version__},
        "replicates_per_call": wl.replicates,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
    }
    if args.trace:
        traced_calls = sum(s["traced"] for s in samples)
        layers = tracing.layer_metrics(tracer.spans, traced_calls)
        layers["trace.overhead_frac"] = overhead_frac(samples)
        layers["check.compared"] = checks["compared"]
        layers["check.moved"] = checks["moved"]
        for k, v in wl.eval_ms(wl.inputs(args.seed, 0)).items():
            layers[f"likelihood.eval_ms.deriv{k}"] = v
        result["layers"] = layers
        result["shares"] = tracing.module_shares(tracer.spans)
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                json.dump(tracing.grouped(tracer.spans, origin), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
