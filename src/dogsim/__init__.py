"""Deterministic simulator for decentralized online gradient descent.

Simulates gossip-based online learning over configurable network
topologies: doubly stochastic mixing matrices, a regularized logistic
online objective, synthetic and LIBSVM data streams, per-round metrics,
and closed-form regret/consensus bound checks.
"""

from .datagen import SyntheticSpec, SyntheticStream, synthetic_block, synthetic_sample
from .engine import RunConfig, RunResult, auto_learning_rate, run_experiment
from .ingest import Dataset, NodeStreams, normalize, parse_libsvm, split_stoch_adv
from .losses import LossSpec, smoothness_bound
from .metrics import (
    average_loss,
    consensus_error,
    estimate_gradient_bounds,
    offline_comparator,
    regret_bound,
    static_regret,
)
from .mixing import MixingMatrix, build_mixing, spectral_gap, verify_doubly_stochastic
from .topology import Graph, build_topology

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Graph",
    "LossSpec",
    "MixingMatrix",
    "NodeStreams",
    "RunConfig",
    "RunResult",
    "SyntheticSpec",
    "SyntheticStream",
    "auto_learning_rate",
    "average_loss",
    "build_mixing",
    "build_topology",
    "consensus_error",
    "estimate_gradient_bounds",
    "normalize",
    "offline_comparator",
    "parse_libsvm",
    "regret_bound",
    "run_experiment",
    "smoothness_bound",
    "spectral_gap",
    "split_stoch_adv",
    "static_regret",
    "synthetic_block",
    "synthetic_sample",
    "verify_doubly_stochastic",
]
