"""brainalign: one small CNN, five learning conditions, and the full RSA
statistical pipeline for scoring layer-wise alignment against brain RDMs.
"""

from .errors import (
    BrainalignError,
    ConfigurationError,
    DataFormatError,
    TrainingDivergedError,
    UndefinedStatisticError,
)
from .network import (
    NetworkState,
    TAPS,
    extract_all_taps,
    forward_cached,
    init_he_normal,
    load_checkpoint,
    save_checkpoint,
)
from .pipeline import ExperimentConfig, best_layer_sweep, run_experiment
from .rdm import average_rdms, pixel_rdm, rdm_from_features
from .rules import RULES, RuleParams, stdp_kernel, train
from .stats import (
    bootstrap_ci,
    cohens_d_paired,
    fdr_bh,
    noise_ceiling,
    partial_spearman,
    permutation_test,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "BrainalignError", "ConfigurationError", "DataFormatError",
    "TrainingDivergedError", "UndefinedStatisticError",
    "NetworkState", "TAPS", "extract_all_taps", "forward_cached",
    "init_he_normal", "load_checkpoint", "save_checkpoint",
    "ExperimentConfig", "best_layer_sweep", "run_experiment",
    "average_rdms", "pixel_rdm", "rdm_from_features",
    "RULES", "RuleParams", "stdp_kernel", "train",
    "bootstrap_ci", "cohens_d_paired", "fdr_bh", "noise_ceiling",
    "partial_spearman", "permutation_test", "spearman",
    "__version__",
]
