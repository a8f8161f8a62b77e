"""Micro-benchmarks of the simulation substrates.

Unlike the figure benches (one timed regeneration each), these measure the
steady-state throughput of the kernels every experiment leans on, and
guard against performance regressions in the hot paths.
"""

import random

import numpy as np

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator
from repro.net.topology import GridTopology, RandomTopology
from repro.percolation.bond import bond_sweep
from repro.sim.engine import Engine
from repro.util.rng import hash_to_unit_interval, hash_to_unit_interval_array
from repro.util.union_find import UnionFind


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire cost of the event loop (10k events per round)."""

    def run():
        engine = Engine()
        for i in range(10_000):
            engine.schedule(float(i % 97) * 0.01, lambda: None)
        engine.run()
        return engine.events_fired

    fired = benchmark(run)
    assert fired == 10_000


def test_union_find_throughput(benchmark):
    """Union/find mix on 10k elements."""
    rng = random.Random(1)
    pairs = [(rng.randrange(10_000), rng.randrange(10_000)) for _ in range(20_000)]

    def run():
        uf = UnionFind(10_000)
        for a, b in pairs:
            uf.union(a, b)
        return uf.n_components

    components = benchmark(run)
    assert components >= 1


def test_bond_sweep_throughput(benchmark):
    """One full Newman-Ziff sweep of a 40x40 grid (the paper's largest)."""
    grid = GridTopology(40)

    def run():
        return bond_sweep(grid, random.Random(7)).n_edges

    edges = benchmark(run)
    assert edges == grid.n_edges


def test_ideal_broadcast_throughput(benchmark):
    """One broadcast on the paper's full 75x75 analysis grid.

    Uses the default execution path: the vectorized lockstep kernel over a
    single broadcast, its one-broadcast case (campaigns run all their
    broadcasts through it together; ``bench_ideal_kernel.py`` times
    those).  Compare against ``test_ideal_broadcast_scalar_reference`` for
    the fast-path speedup the parity suite certifies as bit-identical.
    """
    grid = GridTopology(75)
    sim = IdealSimulator(
        grid, PBBFParams(0.5, 0.6), AnalysisParameters(), seed=3
    )

    def run():
        return sim.run_broadcast(0).n_received

    received = benchmark(run)
    assert received > 1000


def test_ideal_broadcast_scalar_reference(benchmark):
    """The same 75x75 broadcast through the scalar reference loop."""
    grid = GridTopology(75)
    sim = IdealSimulator(
        grid, PBBFParams(0.5, 0.6), AnalysisParameters(), seed=3, fast_path=False
    )

    def run():
        return sim.run_broadcast(0).n_received

    received = benchmark(run)
    assert received > 1000


def test_random_topology_broadcast_throughput(benchmark):
    """One broadcast on a 600-node connected unit-disk deployment.

    The grid benches exercise the fast path's best case (uniform degree
    4, dense padded rows); this tracks the irregular-degree regime the
    scenario layer's random/clustered families run in, where the padded
    neighbour matrix is ragged and the gather masks carry real weight.
    """
    topo = RandomTopology.connected(600, 10.0, 12.0, random.Random(42))
    sim = IdealSimulator(
        topo, PBBFParams(0.5, 0.6), AnalysisParameters(), seed=3, source=0
    )

    def run():
        return sim.run_broadcast(0).n_received

    received = benchmark(run)
    assert received > 300


def test_batched_coin_hash_throughput(benchmark):
    """One whole-network batched coin draw through the general array hash."""
    nodes = np.arange(75 * 75)

    def run():
        return hash_to_unit_interval_array(7, nodes, 12345)

    coins = benchmark(run)
    assert coins.shape == nodes.shape
    assert float(coins[0]) == hash_to_unit_interval(7, 0, 12345)


def test_hop_distance_bfs_throughput(benchmark):
    """Vectorized CSR BFS over the 75x75 grid.

    A fresh topology per round (built in untimed setup) keeps the
    per-source memo cold without reaching into private cache state.
    """

    def fresh_grid():
        return (GridTopology(75),), {}

    def run(grid):
        return grid.hop_distance_array(grid.center_node())

    distances = benchmark.pedantic(run, setup=fresh_grid, rounds=30)
    assert int(distances.max()) == 74
