"""Poisson log-linear classification and clustering for count matrices."""

from .clustering import Dendrogram, cer, cer_sweep, complete_linkage, cut_tree, to_newick
from .count_matrix import (
    CountMatrix,
    LabeledDataset,
    Partition,
    read_count_matrix,
    read_labels,
    write_count_matrix,
)
from .dissimilarity import (
    DissimilarityMatrix,
    dissimilarity_matrix,
    poisson_dissimilarity_matrix,
    poisson_pair_dissimilarity,
    sq_euclidean_dissimilarity_matrix,
)
from .errors import ParseError, PoiskitError, ValidationError
from .plda import (
    CrossValidationResult,
    PldaModel,
    Prediction,
    cross_validate,
    default_rho_grid,
    fit,
    predict,
    predict_matrix,
)
from .simulate import (
    SimulatedDataset,
    SimulationConfig,
    SimulationTruth,
    draw_negative_binomial,
    simulate,
    split_train_test,
)
from .size_factors import (
    SizeFactors,
    estimate_size_factors,
    estimate_test_size_factor,
)
from .transform import TransformResult, apply_alpha, find_alpha, gof_statistic

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
