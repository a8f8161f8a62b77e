"""Site percolation sweeps.

The gossip-based routing protocol the paper contrasts PBBF against [5]
corresponds to *site* percolation: each node independently decides to relay
(to all neighbours) or to stay silent.  We include the site sweep both as a
baseline for examples and to demonstrate the structural difference Remark 1
relies on (bond thresholds sit below site thresholds on the same lattice).

The Newman-Ziff formulation activates sites one at a time in random order;
an activated site merges with every already-active neighbour.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net.topology import Topology
from repro.util.union_find import UnionFind
from repro.util.validation import check_probability


@dataclass(frozen=True)
class SiteSweepResult:
    """Outcome of one site-percolation sweep.

    ``largest_cluster_sizes[m]`` is the largest active-cluster size once the
    first ``m`` sites are occupied.
    """

    n_nodes: int
    largest_cluster_sizes: Tuple[int, ...]

    def first_site_count_reaching(self, coverage: float) -> Optional[int]:
        """Smallest active-site count whose largest cluster covers ``coverage``."""
        check_probability("coverage", coverage)
        needed = max(1, math.ceil(coverage * self.n_nodes))
        for m, size in enumerate(self.largest_cluster_sizes):
            if size >= needed:
                return m
        return None


def site_sweep(topology: Topology, rng: random.Random) -> SiteSweepResult:
    """Run one Newman-Ziff site sweep over ``topology``."""
    order = list(topology.nodes())
    rng.shuffle(order)
    uf = UnionFind(topology.n_nodes)
    union = uf.union
    neighbors = topology.neighbors
    active = [False] * topology.n_nodes
    sizes: List[int] = [0]
    append = sizes.append
    # Inactive nodes stay singletons and unions only ever join active
    # sites, so the union-find's O(1) largest-component counter *is* the
    # largest active cluster once any site is active — no per-site find.
    for site in order:
        active[site] = True
        for nbr in neighbors(site):
            if active[nbr]:
                union(site, nbr)
        append(uf.largest_component_size)
    return SiteSweepResult(
        n_nodes=topology.n_nodes,
        largest_cluster_sizes=tuple(sizes),
    )


def coverage_site_fraction(
    topology: Topology,
    coverage: float,
    rng: random.Random,
    runs: int = 20,
) -> List[float]:
    """Per-run critical site fractions for the largest cluster to reach ``coverage``.

    Each run reads only the one number it needs: the active-site count at
    which the largest cluster first reaches ``coverage``.  The site order
    is drawn exactly as :func:`site_sweep` (the oracle) draws it, so
    ``rng`` ends in the same state, but the union-find is two local lists
    and the sweep stops at the threshold.
    """
    if runs <= 0:
        raise ValueError(f"runs must be > 0, got {runs}")
    check_probability("coverage", coverage)
    n = topology.n_nodes
    needed = max(1, math.ceil(coverage * n))
    adjacency = [topology.neighbors(v) for v in topology.nodes()]
    fractions: List[float] = []
    for _ in range(runs):
        count = _first_site_count(adjacency, needed, rng)
        if count is None:
            raise RuntimeError(
                f"sweep never reached coverage {coverage}; is the graph connected?"
            )
        fractions.append(count / n)
    return fractions


def _first_site_count(
    adjacency: List[Tuple[int, ...]], needed: int, rng: random.Random
) -> Optional[int]:
    """Active-site count at which some cluster first holds ``needed`` nodes."""
    n = len(adjacency)
    order = list(range(n))
    rng.shuffle(order)
    parent = list(range(n))
    size = [1] * n
    active = [False] * n
    # Clusters only grow by merging into the newly activated site, so the
    # largest cluster first reaches ``needed`` exactly when that site's does.
    for m, site in enumerate(order, 1):
        active[site] = True
        root = site
        for nbr in adjacency[site]:
            if not active[nbr]:
                continue
            while parent[nbr] != nbr:
                parent[nbr] = nbr = parent[parent[nbr]]
            if nbr == root:
                continue
            if size[root] < size[nbr]:
                root, nbr = nbr, root
            parent[nbr] = root
            size[root] += size[nbr]
        if size[root] >= needed:
            return m
    return None
