"""Long-memory LARCH volatility processes: simulation, epsilon-regularized
pseudo-maximum-likelihood estimation, asymptotic covariances, and a
Monte-Carlo replication harness."""

from .asymptotics import (
    RatePrediction,
    SandwichResult,
    predicted_rate,
    sandwich,
)
from .coeffs import (
    CoeffSpec,
    MomentReport,
    NoiseMoments,
    ParamSpace,
    Theta,
    check_moment_conditions,
    gaussian_moments,
    norm_p,
    tail_variance,
    zeta_tail,
)
from .diagnostics import DecayFit, ScoreGapResult, fit_decay, score_gap
from .errors import LarchError
from .estimator import EstimationResult, estimate
from .likelihood import (
    LossEval,
    LossSpec,
    landscape,
    loss,
    m_of_n,
)
from .montecarlo import (
    MAD_SCALE,
    McReport,
    StudyConfig,
    Summary,
    acf,
    case_study,
    normal_plot_data,
    run_study,
    summarize,
)
from .simulate import Sample, SimConfig, derive_seed, simulate

__version__ = "0.1.0"

__all__ = [
    "CoeffSpec", "DecayFit", "EstimationResult", "LarchError",
    "LossEval", "LossSpec", "MAD_SCALE", "McReport", "MomentReport",
    "NoiseMoments", "ParamSpace", "RatePrediction", "Sample",
    "SandwichResult", "ScoreGapResult", "SimConfig", "StudyConfig",
    "Summary", "Theta", "acf", "case_study", "check_moment_conditions",
    "derive_seed", "estimate", "fit_decay", "gaussian_moments",
    "landscape", "loss", "m_of_n", "norm_p", "normal_plot_data",
    "predicted_rate", "run_study", "sandwich", "score_gap", "simulate",
    "summarize", "tail_variance", "zeta_tail",
]
