"""Correspondence analysis, kernel variants, and word-vector evaluation."""

from .ca import EmbeddingSet, export_coordinates, read_embeddings, write_embeddings
from .corpus import CooccurrenceConfig, count_cooccurrences, load_stopwords, tokenize
from .datasets import fisher_table
from .evaluation import EvalReport, WordSimDataset, cosine, evaluate, load_wordsim, spearman
from .gini import RotatedCovariance, brute_force_covariance, gini_variance, rotated_covariance
from .kca import (
    AssociationMatrix,
    KcaMethod,
    KernelSpec,
    NotPositiveDefiniteError,
    association_matrix,
    build_gamma,
    fit_kca,
    method_from_name,
)
from .linalg import Decomposition, nuclear_norm, svd
from .tables import ContingencyTable, contingency_from_observations, read_tsv, residual_matrix, write_tsv

__version__ = "0.1.0"

__all__ = [
    "AssociationMatrix",
    "ContingencyTable",
    "CooccurrenceConfig",
    "Decomposition",
    "EmbeddingSet",
    "EvalReport",
    "KcaMethod",
    "KernelSpec",
    "NotPositiveDefiniteError",
    "RotatedCovariance",
    "WordSimDataset",
    "association_matrix",
    "brute_force_covariance",
    "build_gamma",
    "contingency_from_observations",
    "cosine",
    "count_cooccurrences",
    "evaluate",
    "export_coordinates",
    "fisher_table",
    "fit_kca",
    "gini_variance",
    "load_stopwords",
    "load_wordsim",
    "method_from_name",
    "nuclear_norm",
    "read_embeddings",
    "read_tsv",
    "residual_matrix",
    "rotated_covariance",
    "spearman",
    "svd",
    "tokenize",
    "write_embeddings",
    "write_tsv",
]
