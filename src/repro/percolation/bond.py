"""Bond percolation sweeps (Newman-Ziff algorithm).

One *sweep* activates every edge of a graph exactly once, in a uniformly
random order, merging endpoints in a union-find structure.  Because cluster
growth is monotone, the first activation count at which a predicate becomes
true (e.g. "the source's cluster covers 90% of nodes") is that run's
critical bond count; dividing by the number of edges gives the critical
*fraction* plotted in Figure 6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.topology import Topology
from repro.util.union_find import UnionFind
from repro.util.validation import check_probability


@dataclass(frozen=True)
class BondSweepResult:
    """Outcome of one bond-percolation sweep.

    Attributes
    ----------
    n_nodes / n_edges:
        Size of the swept graph.
    source_cluster_sizes:
        ``source_cluster_sizes[m]`` is the size of the cluster containing
        the tracked source after the first ``m`` bonds are occupied
        (index 0 = no bonds = 1, the source alone).
    largest_cluster_sizes:
        Same, for the largest cluster in the graph.
    """

    n_nodes: int
    n_edges: int
    source_cluster_sizes: Tuple[int, ...]
    largest_cluster_sizes: Tuple[int, ...]

    def first_bond_count_reaching(self, coverage: float) -> Optional[int]:
        """Smallest occupied-bond count where source coverage >= ``coverage``.

        Returns ``None`` when even the fully-occupied graph never reaches it
        (e.g. a disconnected graph).
        """
        check_probability("coverage", coverage)
        needed = max(1, math.ceil(coverage * self.n_nodes))
        for m, size in enumerate(self.source_cluster_sizes):
            if size >= needed:
                return m
        return None

    def coverage_fraction_at(self, bond_fraction: float) -> float:
        """Source-cluster coverage when ``bond_fraction`` of bonds are open."""
        check_probability("bond_fraction", bond_fraction)
        m = min(self.n_edges, int(round(bond_fraction * self.n_edges)))
        return self.source_cluster_sizes[m] / self.n_nodes


def bond_sweep(
    topology: Topology,
    rng: random.Random,
    source: Optional[int] = None,
) -> BondSweepResult:
    """Run one Newman-Ziff bond sweep over ``topology``.

    Parameters
    ----------
    topology:
        The graph whose edges are activated (typically a
        :class:`~repro.net.topology.GridTopology`).
    rng:
        Randomness for the edge permutation.
    source:
        Node whose cluster is tracked; defaults to the grid centre for
        grids and node 0 otherwise, matching the paper's "source as near
        to the center of the grid as possible".
    """
    if source is None:
        source = _default_source(topology)
    csr = topology.csr
    n_edges = csr.n_edges
    # Shuffling index positions draws exactly the same permutation as
    # shuffling the edge list itself (Fisher-Yates only looks at length),
    # so results stay bit-identical while the edge reorder becomes one
    # vectorized gather from the topology's cached CSR edge arrays.
    order = list(range(n_edges))
    rng.shuffle(order)
    us = csr.edge_u[order].tolist()
    vs = csr.edge_v[order].tolist()
    uf = UnionFind(topology.n_nodes)
    union = uf.union
    find = uf.find
    component_size = uf.component_size
    source_sizes: List[int] = [1]
    largest_sizes: List[int] = [1 if topology.n_nodes else 0]
    append_source = source_sizes.append
    append_largest = largest_sizes.append
    # Track the source's root incrementally: after a merge the old root is
    # at most one parent hop from the new one, so this replaces a full
    # find-from-source per bond with a near-free root check.
    source_root = find(source)
    source_size = 1
    for u, v in zip(us, vs):
        if union(u, v):
            root = find(u)
            if find(source_root) == root:
                source_root = root
                source_size = component_size(root)
        append_source(source_size)
        append_largest(uf.largest_component_size)
    return BondSweepResult(
        n_nodes=topology.n_nodes,
        n_edges=n_edges,
        source_cluster_sizes=tuple(source_sizes),
        largest_cluster_sizes=tuple(largest_sizes),
    )


def first_bond_counts(
    topology: Topology,
    needed: Sequence[int],
    rng: random.Random,
    source: Optional[int] = None,
) -> List[Optional[int]]:
    """One sweep, read only where the source's cluster reaches each size.

    Returns, for every entry of ``needed``, the smallest occupied-bond
    count at which the source's cluster holds at least that many nodes
    (``None`` if it never does) — what
    :meth:`BondSweepResult.first_bond_count_reaching` reads off a full
    :func:`bond_sweep`, which stays the oracle.  The edge permutation is
    drawn exactly as there, so ``rng`` ends in the same state, but the
    union-find is two local lists (path halving, union by size), the
    source's root is tracked as merges happen, and the sweep stops once
    the largest size is reached.
    """
    if source is None:
        source = _default_source(topology)
    csr = topology.csr
    order = list(range(csr.n_edges))
    rng.shuffle(order)
    targets = sorted(set(needed))
    counts: Dict[int, int] = {}
    k = 0
    while k < len(targets) and targets[k] <= 1:
        counts[targets[k]] = 0  # the source alone already covers it
        k += 1
    if k < len(targets):
        parent = list(range(topology.n_nodes))
        size = [1] * topology.n_nodes
        source_root = source
        edges = zip(csr.edge_u[order].tolist(), csr.edge_v[order].tolist())
        for m, (u, v) in enumerate(edges, 1):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                continue
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            if v == source_root or u == source_root:
                source_root = u
                while k < len(targets) and size[u] >= targets[k]:
                    counts[targets[k]] = m
                    k += 1
                if k == len(targets):
                    break
    return [counts.get(count) for count in needed]


def coverage_bond_fraction(
    topology: Topology,
    coverage: float,
    rng: random.Random,
    runs: int = 20,
    source: Optional[int] = None,
) -> List[float]:
    """Per-run critical bond fractions for reaching ``coverage``.

    Runs ``runs`` independent sweeps and returns each run's
    ``critical_bond_count / n_edges``.  Aggregate with
    :func:`repro.util.stats.summarize`.  Runs that never reach the coverage
    (impossible on a connected graph) raise :class:`RuntimeError` so silent
    bias is impossible.
    """
    if runs <= 0:
        raise ValueError(f"runs must be > 0, got {runs}")
    check_probability("coverage", coverage)
    needed = max(1, math.ceil(coverage * topology.n_nodes))
    fractions: List[float] = []
    for _ in range(runs):
        (count,) = first_bond_counts(topology, (needed,), rng, source)
        if count is None:
            raise RuntimeError(
                f"sweep never reached coverage {coverage}; is the graph connected?"
            )
        fractions.append(count / topology.csr.n_edges)
    return fractions


def _default_source(topology: Topology) -> int:
    center = getattr(topology, "center_node", None)
    if callable(center):
        return center()
    return 0
