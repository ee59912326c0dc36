"""Bayesian network structure learning in the space of restricted PDAGs."""

from .data import BayesNet, Dataset, fit_parameters, load_csv, load_network, sample, save_csv, save_network
from .evaluation import HammingBreakdown, evaluate, hamming
from .graph import EquivalenceKey, GraphError, PartialDag, is_extension
from .scoring import ContingencyTable, LocalScoreCache, Scorer, bdeu_local, bic_local, count_statistics, kl_fit_term
from .search import (MoveOperator, SearchReport, StartError, apply_operator,
                     dag_greedy_search, dag_tabu_search, delta_score,
                     enumerate_neighborhood, greedy_search, is_applicable,
                     tabu_search)

__all__ = [
    "BayesNet", "ContingencyTable", "Dataset", "EquivalenceKey",
    "GraphError", "HammingBreakdown", "LocalScoreCache", "MoveOperator",
    "PartialDag", "Scorer", "SearchReport", "StartError", "apply_operator",
    "bdeu_local", "bic_local", "count_statistics", "dag_greedy_search",
    "dag_tabu_search", "delta_score", "enumerate_neighborhood", "evaluate",
    "fit_parameters", "greedy_search", "hamming", "is_applicable",
    "is_extension", "kl_fit_term", "load_csv", "load_network", "sample",
    "save_csv", "save_network", "tabu_search",
]

__version__ = "0.1.0"
