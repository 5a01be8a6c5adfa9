"""Benchmark of the larchpmle package: replication studies and the sandwich
covariance, timed end to end, plus a traced run per module.

Run from the root of a checkout (nothing to build: the package is imported
from ``src/``):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seconds S]

With a workload name the last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1`` (see BENCHMARK.json).  ``--workload all`` runs every
workload untraced and traced at its default seed and prints every metric
with its unit, the output checks and each module's share of the traced
wall time.

Each run starts a fresh worker process (one process, one BLAS thread) for
the measurement, and four more that stop after set-up; ``setup_s`` is the
median of the five set-up times.  A record of every run, with its raw
samples, goes to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 4
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# a run, set-up probes included, must end within 180 s
RUN_TIMEOUT_S = 170.0

# each workload's default seed, as in workloads.py; mirrored so that this
# process imports neither the package nor numpy
DEFAULT_SEEDS = {"study_d_n1000": 42, "study_d_n10000": 42,
                 "study_joint_n10000": 42, "sandwich_case1": 2}


def _worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    paths = [str(ROOT / "src")] + [p for p in
                                   env.get("PYTHONPATH", "").split(os.pathsep)
                                   if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _worker(args: list, deadline: float) -> tuple:
    """Start a worker; return (start clock, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {cmd}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = quantiles(values, n=4)
    return [q[0], q[2]]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: set-up probes, then the measuring worker."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(SETUP_PROBES):
        t0, res = _worker(base + ["--setup-only"], deadline)
        setups.append(res["t_first"] - t0)
    OUT.mkdir(exist_ok=True)
    stem = (f"{workload}-seed{seed}-trace{trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    spans = OUT / f"{stem}-spans.json"
    t0, res = _worker(base + (["--spans", str(spans)] if trace else []),
                      deadline)
    setups.append(res["t_first"] - t0)

    checks = res["checks"]
    untraced = [s["wall_s"] for s in res["samples"] if not s["traced"]]
    wall = median(untraced)
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": wall,
            "replicates_per_s": res["replicates_per_call"] / wall,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - checks["failed"] / checks["attempted"],
        }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "versions": res["versions"], "thread_env": THREAD_ENV,
        "replicates_per_call": res["replicates_per_call"],
        "calls": len(res["samples"]),
        "setup_s_samples": setups, "samples": res["samples"],
        "wall_s": {"median": wall, "quartiles": _quartiles(untraced),
                   "calls": len(untraced)},
        "peak_rss_mb": res["peak_rss_mb"], "checks": checks,
        "shares": res.get("shares"), "metrics": metrics,
        "spans_file": spans.name if trace else None,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _units() -> dict:
    spec = _spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(seconds: float) -> None:
    """Run every workload untraced and traced; print all metrics."""
    units = _units()
    for workload, seed in DEFAULT_SEEDS.items():
        print(f"== {workload} (seed {seed}, {seconds:g} s per run)")
        for trace in (0, 1):
            rec = run_one(workload, seed, seconds, trace)
            for name, value in rec["metrics"].items():
                print(f"  {name:36s} {value:14.6g} {units.get(name, '')}")
            c = rec["checks"]
            print(f"  checks: {c['attempted'] - c['failed']} of "
                  f"{c['attempted']} replicates pass; {c['compared']} "
                  f"compared with the reference, {c['moved']} moved")
            for p in c["problems"]:
                print(f"    {p}")
            if trace:
                w = rec["wall_s"]
                print(f"  wall_s: median {w['median']:.4f} s, quartiles "
                      f"{w['quartiles'][0]:.4f}-{w['quartiles'][1]:.4f} s, "
                      f"over {w['calls']} untraced calls")
                shares = ", ".join(f"{m} {100 * v:.1f}%"
                                   for m, v in rec["shares"].items())
                print(f"  share of traced wall_s: {shares}")
        print(flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(DEFAULT_SEEDS) + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: run_seconds in "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "larchpmle" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'larchpmle'}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.seconds < 0 or (args.seed is not None and args.seed < 0):
        print("--seconds and --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.workload == "all":
        report(args.seconds)
        return 0
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    rec = run_one(args.workload, seed, args.seconds, args.trace)
    c = rec["checks"]
    units = _units()
    print(json.dumps({"correct": c["failed"] == 0, "attempted": c["attempted"],
                      "failed": c["failed"], "metrics": {
                          k: {"value": v, "unit": units[k]}
                          for k, v in rec["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
