"""Knowledge-graph embedding library: models, training, evaluation.

Implements from scratch (on :mod:`repro.autograd`) the models the paper
covers — TransE, DistMult, ComplEx, RESCAL, HolE, ConvE — plus the
training regimes and the object-side corruption ranking protocol used by
the paper's experiments.
"""

from .base import KGEModel, available_models, create_model, register_model
from .checkpoint import checkpoint_header, load_model, save_model
from .complex_ import ComplEx
from .config import ModelConfig, TrainConfig, expand_grid
from .conve import ConvE
from .diagnostics import PopularityBias, popularity_bias
from .distmult import DistMult
from .evaluation import (
    RankingMetrics,
    compute_ranks,
    evaluate_ranking,
    generate_hard_negatives,
    triple_classification,
)
from .hole import HolE
from .losses import (
    BCEWithLogitsLoss,
    MarginRankingLoss,
    SelfAdversarialLoss,
    SoftmaxCrossEntropyLoss,
    create_loss,
)
from .negative_sampling import NegativeSampler
from .query import Answer, top_objects, top_subjects
from .ranking import RankingEngine, RankingStats, ScoreRowCache
from .reciprocal import ReciprocalWrapper
from .rescal import RESCAL
from .rotate import RotatE
from .simple_ import SimplE
from .training import TrainingResult, fit, train_model
from .transe import TransE
from .tucker import TuckER

__all__ = [
    "KGEModel",
    "create_model",
    "register_model",
    "available_models",
    "TransE",
    "DistMult",
    "ComplEx",
    "RESCAL",
    "HolE",
    "ConvE",
    "RotatE",
    "SimplE",
    "TuckER",
    "checkpoint_header",
    "save_model",
    "load_model",
    "ModelConfig",
    "TrainConfig",
    "expand_grid",
    "MarginRankingLoss",
    "BCEWithLogitsLoss",
    "SelfAdversarialLoss",
    "SoftmaxCrossEntropyLoss",
    "create_loss",
    "NegativeSampler",
    "ReciprocalWrapper",
    "TrainingResult",
    "train_model",
    "fit",
    "RankingMetrics",
    "compute_ranks",
    "RankingEngine",
    "RankingStats",
    "ScoreRowCache",
    "evaluate_ranking",
    "generate_hard_negatives",
    "triple_classification",
    "PopularityBias",
    "popularity_bias",
    "Answer",
    "top_objects",
    "top_subjects",
]
