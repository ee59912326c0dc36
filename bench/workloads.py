"""Workload definitions and the seeded gold-network generator.

Each workload learns from data drawn out of one generated gold network.
The network (structure, state counts, tables) comes from the workload's
fixed ``net_seed``, as benchmark networks in the structure-learning
literature are fixed; the run's ``--seed`` draws the data sample.  The
same seed therefore always gives the same inputs, and different seeds
give different data from the same network, so timings differ by sampling
noise rather than by network size.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from rpdaglearn import BayesNet, PartialDag

ARC_DENSITY = 2.5    # expected arcs per node pair is ARC_DENSITY / n
DIRICHLET_ALPHA = 1.0
ESS = 1.0            # BDeu equivalent sample size for every learn


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str                    # "library" or "cli"
    space: str                    # "rpdag" or "dag"
    strategy: str                 # "greedy" or "tabu"
    n: int
    m: int
    min_states: int
    max_states: int
    net_seed: int
    probe: str                    # calibration probe, see probe.py


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "rpdag-greedy-n60",
            "headline row: most time goes to operator enumeration and the "
            "cycle pre-tests, where neighbourhood work is largest",
            "library", "rpdag", "greedy", n=60, m=5000,
            min_states=2, max_states=3, net_seed=60, probe="python"),
        Workload(
            "rpdag-tabu-n26",
            "tabu moves worsen the score, delete arcs (undo cascades) and "
            "copy the best graph; the score cache is read far more than "
            "written",
            "library", "rpdag", "tabu", n=26, m=5000,
            min_states=2, max_states=3, net_seed=26, probe="python"),
        Workload(
            "dag-cli-wide",
            "wide data through the CLI: counting, CSV loading and the report "
            "dominate; bypasses the rpdag neighbourhood",
            "cli", "dag", "greedy", n=16, m=200000,
            min_states=2, max_states=4, net_seed=16, probe="numpy"),
    )
}


def toy(w):
    """The same workload at a size that learns in well under a second."""
    return dataclasses.replace(w, n=6, m=200)


def generate_network(w):
    """Random DAG with arc probability ARC_DENSITY/n over a random node
    order, min_states..max_states states per variable and Dirichlet
    tables, all drawn from ``w.net_seed``."""
    rng = np.random.default_rng(w.net_seed)
    n = w.n
    p = min(1.0, ARC_DENSITY / n)
    order = rng.permutation(n)
    g = PartialDag(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_arc(int(order[i]), int(order[j]))
    cards = [int(rng.integers(w.min_states, w.max_states + 1))
             for _ in range(n)]
    cpts = []
    for y in range(n):
        q = 1
        for x in sorted(g.pa(y)):
            q *= cards[x]
        cpts.append(rng.dirichlet(np.full(cards[y], DIRICHLET_ALPHA), size=q))
    return BayesNet([f"v{i}" for i in range(n)], cards, g, cpts)
