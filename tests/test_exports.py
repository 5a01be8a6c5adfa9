import importlib
import pkgutil
import subprocess
import sys

import pytest

import larchpmle

MODULES = [larchpmle] + [
    importlib.import_module(f"larchpmle.{info.name}")
    for info in pkgutil.iter_modules(larchpmle.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    # a name left in an export list after its definition is gone would
    # otherwise fail only at `from module import *`
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []


def test_public_surface():
    # the top-level names, sorted; a name added or removed here is an API
    # change
    assert larchpmle.__all__ == [
        "CoeffSpec", "DecayFit", "EstimationResult", "LarchError",
        "LimitH0Result", "LossEval", "LossSpec", "MAD_SCALE", "McReport",
        "MomentReport", "NoiseMoments", "ParamSpace", "RatePrediction",
        "Sample", "SandwichResult", "ScoreGapResult", "SimConfig",
        "StudyConfig", "Summary", "Theta", "acf", "case_study",
        "check_moment_conditions", "derive_seed", "estimate", "fit_decay",
        "gaussian_moments", "landscape", "limit_h0", "loss", "m_of_n",
        "norm_p", "normal_plot_data", "predicted_rate", "run_study",
        "sandwich", "score_gap", "simulate", "summarize", "tail_variance",
        "zeta_tail"]


def test_runs_without_scipy_or_process_pool():
    # the package needs numpy alone at run time, and only a study on
    # several workers starts a process pool (start-up time and memory)
    code = """
import sys
import numpy as np
import larchpmle as lp
spec, theta = lp.CoeffSpec("power", 2000), lp.Theta(0.1, 0.2, 1.0)
s = lp.simulate(spec, theta, lp.SimConfig(n=1000, burn_in=2000, seed=1))
loss = lp.LossSpec("trunc", 0.01, beta=0.799)
lp.estimate(loss, spec, s.x_obs, fix={"c": 0.2, "a": 1.0})
lp.estimate(loss, spec, s.x_obs)
lp.run_study(lp.case_study(1, n_values=(300,), replicates=4, trim=1,
                           burn_in=500), workers=1)
lp.sandwich(spec, theta, 0.01, lp.gaussian_moments(4), path_length=3000,
            burn_in=2000)
lp.limit_h0(spec, theta, path_length=3000, burn_in=2000)
lp.normal_plot_data(np.arange(10.0))
lp.check_moment_conditions(lp.CoeffSpec("farima", 2000),
                           lp.Theta(0.2, 0.3, 1.0), lp.gaussian_moments())
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "concurrent")))
"""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["[]"]
