"""HMM/GMM acoustic modelling substrate (Section II of the paper)."""

from repro.hmm.acoustic_model import AcousticModel, memory_bandwidth_table
from repro.hmm.gaussian import (
    VARIANCE_FLOOR,
    log_gaussian,
    log_normalizer,
    precision_halves,
)
from repro.hmm.gmm import GaussianMixture
from repro.hmm.senone import SenonePool
from repro.hmm.topology import HmmTopology, PhoneHmm
from repro.hmm.train import (
    TrainingConfig,
    fit_gmm,
    forced_alignment,
    kmeans,
    train_senone_pool,
    uniform_alignment,
)

__all__ = [
    "AcousticModel",
    "memory_bandwidth_table",
    "GaussianMixture",
    "SenonePool",
    "HmmTopology",
    "PhoneHmm",
    "TrainingConfig",
    "fit_gmm",
    "kmeans",
    "forced_alignment",
    "uniform_alignment",
    "train_senone_pool",
    "log_gaussian",
    "log_normalizer",
    "precision_halves",
    "VARIANCE_FLOOR",
]
