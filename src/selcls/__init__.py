"""Selective classification toolkit.

Trains small dense classifiers under plain, abstaining, and three-head
selective objectives, ranks test samples with interchangeable soft
selection scores, calibrates coverage thresholds on held-out data, and
emits risk-coverage tables and score histograms.
"""

__version__ = "0.1.0"

from .calibration import apply_selector, fit_threshold
from .datasets import Dataset, MixtureSpec, bayes_posterior, blobs8, generate_mixture
from .evaluation import (
    RiskCoveragePoint,
    ScoreHistogram,
    risk_coverage_curve,
    score_histogram,
)
from .nn import Network, build_network, network_backward, network_forward, stable_softmax
from .objectives import ObjectiveConfig, SatTargetStore, objective_dispatch
from .selection import ProbOutput, SelectionMechanism, score_batch
from .training import TrainConfig, TrainReport, train

__all__ = [
    "apply_selector", "fit_threshold",
    "Dataset", "MixtureSpec", "bayes_posterior", "blobs8", "generate_mixture",
    "RiskCoveragePoint", "ScoreHistogram", "risk_coverage_curve",
    "score_histogram",
    "Network", "build_network", "network_backward", "network_forward",
    "stable_softmax",
    "ObjectiveConfig", "SatTargetStore", "objective_dispatch",
    "ProbOutput", "SelectionMechanism", "score_batch",
    "TrainConfig", "TrainReport", "train",
]
