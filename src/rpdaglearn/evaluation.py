"""Structural and distributional evaluation against gold standards."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError
# bench/tracer.py patches evaluation.kl_fit_term by name; nothing here
# calls it.
from .scoring import dag_scores, kl_fit_term  # noqa: F401


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
    supplied.  The three scores of a dataset come from one count of each
    family (see :func:`~rpdaglearn.scoring.dag_scores`); test-set scores
    count the test data.
    """
    for ds in (train,) if test is None else (train, test):
        if ds.n != structure.node_count:
            raise GraphError("structure/dataset variable mismatch")
        if gold is not None and gold.node_count != ds.n:
            raise GraphError("gold/dataset variable mismatch")
    h = structure if structure.is_dag() else structure.extend()
    record = {"edges": structure.edge_count()}

    for ds, tag in ((train, "train"), (test, "test")):
        if ds is not None:
            (record[f"bdeu_{tag}"], record[f"bic_{tag}"],
             record[f"kl_{tag}"]) = dag_scores(h, ds, ess, prior)
    if gold is not None:
        breakdown = hamming(h, gold)
        record.update(hamming_added=breakdown.added,
                      hamming_deleted=breakdown.deleted,
                      hamming_inverted=breakdown.inverted,
                      hamming_total=breakdown.total)
    return record
