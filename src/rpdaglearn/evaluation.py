"""Structural and distributional evaluation against gold standards."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError
from .scoring import Scorer, kl_fit_term


@dataclass
class HammingBreakdown:
    """Edge differences against a gold DAG: added, deleted, inverted."""

    added: int
    deleted: int
    inverted: int

    @property
    def total(self):
        return self.added + self.deleted + self.inverted


def hamming(learned, gold):
    """Structural Hamming distance H = A + D + I.

    A learned graph with links is first mapped to its canonical extension,
    so orientation differences are counted literally against the gold DAG.
    """
    if not gold.is_dag():
        raise GraphError("gold standard must be a DAG")
    if learned.node_count != gold.node_count:
        raise GraphError("node set mismatch")
    h = learned if learned.is_dag() else learned.extend()
    learned_skel = h.skeleton()
    gold_skel = gold.skeleton()
    added = len(learned_skel - gold_skel)
    deleted = len(gold_skel - learned_skel)
    inverted = sum(1 for a, b in learned_skel & gold_skel
                   if (a in h.pa(b)) != (a in gold.pa(b)))
    return HammingBreakdown(added, deleted, inverted)


def evaluate(structure, train, test=None, gold=None, ess=1.0,
             prior="uniform"):
    """Score a structure on training (and optionally test) data.

    Returns a flat record with edge count, BDeu, BIC, and the mutual
    information fit term, plus the Hamming breakdown when a gold DAG is
    supplied.  Test-set scores re-count all statistics on the test data.
    """
    for ds in (train,) if test is None else (train, test):
        if ds.n != structure.node_count:
            raise GraphError("structure/dataset variable mismatch")
        if gold is not None and gold.node_count != ds.n:
            raise GraphError("gold/dataset variable mismatch")
    h = structure if structure.is_dag() else structure.extend()
    record = {"edges": structure.edge_count()}

    def _scores(ds, tag):
        record[f"bdeu_{tag}"] = Scorer(ds, "bdeu", ess, prior).score_dag(h)
        record[f"bic_{tag}"] = Scorer(ds, "bic").score_dag(h)
        record[f"kl_{tag}"] = kl_fit_term(h, ds)

    _scores(train, "train")
    if test is not None:
        _scores(test, "test")
    if gold is not None:
        breakdown = hamming(h, gold)
        record.update(hamming_added=breakdown.added,
                      hamming_deleted=breakdown.deleted,
                      hamming_inverted=breakdown.inverted,
                      hamming_total=breakdown.total)
    return record
