"""The lean threshold loops against the full-curve sweeps they replace.

``estimate_critical_bond_fraction``, ``coverage_bond_fraction`` and
``coverage_site_fraction`` read one number per run straight out of a
local union-find and stop at the last threshold.  ``bond_sweep`` and
``site_sweep`` build the whole occupation curve with the public
``UnionFind``; they are the oracle here.  Equality must be exact, and the
``rng`` must end every run in the same state, so a campaign's later
draws cannot drift either.
"""

import math
import random

import pytest

from repro.net.topology import (
    ClusteredRandomTopology,
    GridTopology,
    RandomTopology,
    Topology,
)
from repro.percolation.bond import bond_sweep, coverage_bond_fraction, first_bond_counts
from repro.percolation.site import coverage_site_fraction, site_sweep
from repro.percolation.threshold import estimate_critical_bond_fraction
from repro.util.stats import summarize

TOPOLOGIES = [
    *(GridTopology(side) for side in (5, 10, 17, 40)),
    RandomTopology.connected(120, 40.0, 10.0, random.Random(3)),
    ClusteredRandomTopology(4, 25, 30.0, 6.0, 100.0, random.Random(1)),
]


def levels_for(topology):
    return (0.0, 1 / topology.n_nodes, 0.5, 0.9, 0.99, 1.0)


def needed(level, topology):
    return max(1, math.ceil(level * topology.n_nodes))


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=repr)
class TestAgainstFullSweeps:
    def test_bond_counts_equal_the_bond_sweep_curve(self, topology):
        levels = levels_for(topology)
        for seed in range(10):
            oracle_rng, lean_rng = random.Random(seed), random.Random(seed)
            sweep = bond_sweep(topology, oracle_rng)
            counts = first_bond_counts(
                topology, [needed(level, topology) for level in levels], lean_rng
            )
            assert counts == [sweep.first_bond_count_reaching(level) for level in levels]
            assert lean_rng.random() == oracle_rng.random()

    def test_bond_thresholds_equal_the_oracle_estimate(self, topology):
        levels = levels_for(topology)
        oracle_rng, lean_rng = random.Random(7), random.Random(7)
        per_level = {level: [] for level in levels}
        for _ in range(6):
            sweep = bond_sweep(topology, oracle_rng)
            for level in levels:
                count = sweep.first_bond_count_reaching(level)
                per_level[level].append(count / sweep.n_edges)
        result = estimate_critical_bond_fraction(topology, levels, lean_rng, runs=6)
        for level in levels:
            assert result.threshold_for(level) == summarize(per_level[level])
        assert lean_rng.random() == oracle_rng.random()

    def test_coverage_bond_fraction_equals_the_oracle(self, topology):
        for level in levels_for(topology):
            oracle_rng, lean_rng = random.Random(8), random.Random(8)
            expected = [
                bond_sweep(topology, oracle_rng).first_bond_count_reaching(level)
                / topology.n_edges
                for _ in range(4)
            ]
            assert coverage_bond_fraction(topology, level, lean_rng, runs=4) == expected
            assert lean_rng.random() == oracle_rng.random()

    def test_site_fractions_equal_the_site_sweep_curve(self, topology):
        for level in levels_for(topology):
            oracle_rng, lean_rng = random.Random(9), random.Random(9)
            expected = [
                site_sweep(topology, oracle_rng).first_site_count_reaching(level)
                / topology.n_nodes
                for _ in range(5)
            ]
            assert coverage_site_fraction(topology, level, lean_rng, runs=5) == expected
            assert lean_rng.random() == oracle_rng.random()


def two_islands():
    """Two disjoint 3-node paths: no cluster ever covers more than half."""
    positions = [(float(i), 0.0) for i in range(6)]
    return Topology(positions, [[1], [0, 2], [1], [4], [3, 5], [4]])


class TestDisconnectedGraphs:
    def test_bond_threshold_raises(self):
        with pytest.raises(RuntimeError, match="never reached coverage 0.9"):
            estimate_critical_bond_fraction(two_islands(), (0.5, 0.9), random.Random(1))

    def test_bond_fraction_raises(self):
        with pytest.raises(RuntimeError, match="never reached coverage"):
            coverage_bond_fraction(two_islands(), 1.0, random.Random(1), source=0)

    def test_site_fraction_raises(self):
        with pytest.raises(RuntimeError, match="never reached coverage"):
            coverage_site_fraction(two_islands(), 0.9, random.Random(1))

    def test_reachable_levels_still_resolve(self):
        counts = first_bond_counts(two_islands(), [1, 3, 4], random.Random(2), source=0)
        assert counts[0] == 0
        assert counts[1] is not None and counts[2] is None
