"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from larchpmle import LossSpec, Theta, loss  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _study(replicates=1):
    return workloads.Study("test_study", 1000, "d", replicates, 1)


def test_checker_accepts_real_rows_and_rejects_doctored_ones():
    wl = _study()
    cfg = wl.inputs(42, 0)
    report = wl.call(cfg)
    assert wl.check(cfg, report, None)[0] == [None]

    row = report.rows[0]
    worse = Theta(0.44 if row.d_hat < 0.3 else 0.0, row.c_hat, row.a_hat)
    worse_loss = loss(LossSpec("trunc", cfg.epsilon, beta=cfg.beta), cfg.spec,
                      worse, wl.path(cfg, row.seed), derivatives=0).value
    moved = replace(row, d_hat=worse.d, loss=worse_loss)
    [verdict], _, _ = wl.check(cfg, replace(report, rows=(moved,)), None)
    assert verdict is not None and "> loss at theta0" in verdict
    for doctored in (replace(row, d_hat=worse.d),
                     replace(row, loss=row.loss * (1 + 1e-6)),
                     replace(row, c_hat=0.3),
                     replace(row, d_hat=0.49)):
        bad = replace(report, rows=(doctored,))
        [verdict], _, _ = wl.check(cfg, bad, None)
        assert verdict is not None, doctored
    [verdict], _, _ = wl.check(cfg, replace(report, rows=()), None)
    assert verdict == "missing row"


def test_reference_comparison_counts_moved_replicates():
    wl = _study(replicates=2)
    cfg = wl.inputs(42, 0)
    report = wl.call(cfg)
    d = [row.d_hat for row in report.rows]
    assert wl.check(cfg, report, d)[1:] == (2, 0)
    assert wl.check(cfg, report, [d[0], d[1] + 1e-3])[1:] == (2, 1)


class Raising:
    root = "montecarlo.run_study"
    replicates = 3
    inputs_per_run = 2

    def inputs(self, seed, i):
        return seed

    def call(self, inputs):
        raise RuntimeError("boom")


@pytest.mark.parametrize("trace", [False, True])
def test_raising_call_fails_its_replicates_without_crashing(trace):
    wl = Raising()
    original = tracing.montecarlo.simulate
    tracer = tracing.Tracer() if trace else None
    samples, outputs = worker.run_calls(wl, 0, 0.0, trace, tracer)
    assert len(samples) == (2 if trace else 1)
    assert all(s["error"] == "RuntimeError: boom" for s in samples)
    checks = worker.check_outputs(wl, 0, samples, outputs, None)
    assert checks["attempted"] == checks["failed"] == 3 * len(samples)
    if trace:
        assert [s.name for s in tracer.spans] == ["montecarlo.run_study"]
        assert tracing.montecarlo.simulate is original


def test_self_times_add_up_on_a_synthetic_tree():
    spans = [Span("montecarlo.run_study", 0.0, 10.0, -1, 0, -1),
             Span("simulate.simulate", 1.0, 4.0, 0, 0, 0, 100),
             Span("estimator.estimate", 4.5, 9.0, 0, 0, 0, (True, False)),
             Span("likelihood.setup", 4.5, 5.0, 2, 0, 0),
             Span("likelihood.eval", 5.0, 6.0, 2, 0, 0),
             Span("likelihood.eval", 7.0, 8.5, 2, 0, 0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx([2.5, 3.0, 1.5, 0.5, 1.0, 1.5])
    assert sum(own) == pytest.approx(10.0)
    assert sum(tracing.module_shares(spans).values()) == pytest.approx(1.0)

    m = tracing.layer_metrics(spans, calls=1)
    assert m["simulate.us_per_step"] == pytest.approx(3e6 / 100)
    assert m["likelihood.evals"] == 2
    assert m["likelihood.busy_s"] == pytest.approx(3.0)
    assert m["estimator.self_s"] == pytest.approx(1.5)
    assert m["estimator.evals_per_fit"] == 2
    assert m["montecarlo.self_s"] == pytest.approx(2.5)
    assert m["montecarlo.replicate_s.p50"] == pytest.approx(8.0)


def test_run_knows_every_workload_and_its_default_seed():
    assert run.DEFAULT_SEEDS == {name: wl.default_seed
                                 for name, wl in workloads.WORKLOADS.items()}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def _bench(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          stdout=subprocess.PIPE, text=True, timeout=180)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1",
                  "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in wanted}


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "study_d_n1000", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
