"""Scalar-vs-vectorized parity contract for the ideal simulator.

The vectorized lockstep kernel (`fast_path=True`), which advances all of
a campaign's broadcasts together, must produce *bit-identical*
:class:`BroadcastOutcome`\\ s to the scalar heap loop (`fast_path=False`)
run one broadcast at a time — same receive times (float-for-float), same
hop counts, same spanning-tree parents, same transmission counters —
across both scheduling modes, both q-coin scopes, and a wide
seed/parameter matrix.  This equality is what lets the fast path replace
the reference implementation in every figure campaign without changing a
single plotted number.
"""

import itertools
import random

import pytest

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator, SchedulingMode
from repro.net.topology import GridTopology, RandomTopology
from repro.runners.context import execution, get_execution
from repro.scenarios import ScenarioSpec

GRID = GridTopology(15)
CONFIG = AnalysisParameters()

MODES = [SchedulingMode.PSM_PBBF, SchedulingMode.ALWAYS_ON]
SCOPES = ["frame", "broadcast"]
OPERATING_POINTS = [(0.0, 0.0), (0.2, 0.3), (0.5, 0.6), (1.0, 1.0), (0.05, 0.9)]


def outcomes_pair(topology, params, index=0, **kwargs):
    scalar = IdealSimulator(
        topology, params, CONFIG, fast_path=False, **kwargs
    ).run_broadcast(index)
    fast = IdealSimulator(
        topology, params, CONFIG, fast_path=True, **kwargs
    ).run_broadcast(index)
    return scalar, fast


def assert_identical(scalar, fast):
    assert scalar.receive_times == fast.receive_times
    assert scalar.hops == fast.hops
    assert scalar.parents == fast.parents
    assert scalar.n_transmissions == fast.n_transmissions
    assert scalar.n_immediate_forwards == fast.n_immediate_forwards
    assert scalar.n_normal_forwards == fast.n_normal_forwards
    assert scalar == fast


class TestBroadcastParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("p,q", OPERATING_POINTS)
    def test_mode_scope_param_matrix_over_20_seeds(self, mode, scope, p, q):
        for seed in range(20):
            scalar, fast = outcomes_pair(
                GRID, PBBFParams(p, q), seed=seed, mode=mode, q_coin_scope=scope
            )
            assert_identical(scalar, fast)

    @pytest.mark.parametrize("index", [0, 1, 7])
    def test_later_broadcast_indices(self, index):
        scalar, fast = outcomes_pair(
            GRID, PBBFParams(0.3, 0.4), index=index, seed=11
        )
        assert_identical(scalar, fast)

    def test_random_topology(self):
        topo = RandomTopology.connected(60, 40.0, 10.0, random.Random(9))
        for seed in range(5):
            scalar, fast = outcomes_pair(topo, PBBFParams(0.4, 0.5), seed=seed)
            assert_identical(scalar, fast)

    def test_non_center_source(self):
        scalar, fast = outcomes_pair(GRID, PBBFParams(0.5, 0.6), seed=2, source=0)
        assert_identical(scalar, fast)

    def test_campaign_parity(self):
        """Whole campaigns (energy, aggregated outcomes) agree too."""
        for mode, scope in itertools.product(MODES, SCOPES):
            a = IdealSimulator(
                GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5,
                mode=mode, q_coin_scope=scope, fast_path=False,
            ).run_campaign(4)
            b = IdealSimulator(
                GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5,
                mode=mode, q_coin_scope=scope, fast_path=True,
            ).run_campaign(4)
            assert a.outcomes == b.outcomes
            assert a.total_joules == b.total_joules
            assert a.shortest_hops == b.shortest_hops


def scalar_outcomes(topology, params, n, **kwargs):
    sim = IdealSimulator(topology, params, CONFIG, fast_path=False, **kwargs)
    return [sim.run_broadcast(i) for i in range(n)]


def lockstep_campaign(topology, params, n, **kwargs):
    return IdealSimulator(
        topology, params, CONFIG, fast_path=True, **kwargs
    ).run_campaign(n)


class TestLockstepCampaignParity:
    """``run_campaign(n)`` advances n broadcasts together; each must match
    the scalar loop run alone."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("p,q", OPERATING_POINTS)
    def test_mode_scope_param_matrix_over_20_seeds(self, mode, scope, p, q):
        params = PBBFParams(p, q)
        for seed in range(20):
            kwargs = dict(seed=seed, mode=mode, q_coin_scope=scope)
            reference = scalar_outcomes(GRID, params, 9, **kwargs)
            for n in (1, 2, 9):
                campaign = lockstep_campaign(GRID, params, n, **kwargs)
                assert campaign.outcomes == reference[:n]

    def test_random_topology_with_failed_nodes(self):
        topo = RandomTopology.connected(80, 40.0, 10.0, random.Random(9))
        failed = tuple(sorted(random.Random(3).sample(range(1, 80), 15)))
        for seed in range(5):
            kwargs = dict(seed=seed, source=0, failed_nodes=failed)
            reference = scalar_outcomes(topo, PBBFParams(0.4, 0.5), 9, **kwargs)
            campaign = lockstep_campaign(topo, PBBFParams(0.4, 0.5), 9, **kwargs)
            assert campaign.outcomes == reference
            assert all(o.receive_times[v] is None for o in reference for v in failed)

    @pytest.mark.parametrize("scope", SCOPES)
    def test_non_center_source(self, scope):
        kwargs = dict(seed=2, source=7, q_coin_scope=scope)
        reference = scalar_outcomes(GRID, PBBFParams(0.5, 0.6), 9, **kwargs)
        campaign = lockstep_campaign(GRID, PBBFParams(0.5, 0.6), 9, **kwargs)
        assert campaign.outcomes == reference

    @pytest.mark.parametrize("index", [1, 4, 8])
    def test_run_broadcast_at_nonzero_index(self, index):
        """``run_broadcast(i)`` is the kernel over ``[i]``: it must match both
        the scalar loop and broadcast ``i`` of a whole lockstep campaign."""
        params = PBBFParams(0.3, 0.4)
        fast = IdealSimulator(GRID, params, CONFIG, seed=11, fast_path=True)
        scalar = IdealSimulator(GRID, params, CONFIG, seed=11, fast_path=False)
        alone = fast.run_broadcast(index)
        assert alone == scalar.run_broadcast(index)
        assert alone == fast.run_campaign(9).outcomes[index]

    @pytest.mark.parametrize("mode", MODES)
    def test_total_joules_and_hops_equal(self, mode):
        failed = (0, 1, 16, 17, 44, 199)
        for n in (1, 2, 9):
            a = IdealSimulator(
                GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5, mode=mode,
                fast_path=False, failed_nodes=failed,
            ).run_campaign(n)
            b = lockstep_campaign(
                GRID, PBBFParams(0.5, 0.6), n, seed=5, mode=mode, failed_nodes=failed
            )
            assert a.outcomes == b.outcomes
            assert a.total_joules == b.total_joules
            assert a.shortest_hops == b.shortest_hops


class TestFailureInjectionParity:
    """Pre-broadcast node failures must not break kernel equivalence."""

    @pytest.mark.parametrize("mode", MODES)
    def test_failed_nodes_matrix_over_seeds(self, mode):
        rng = random.Random(17)
        nodes = [v for v in GRID.nodes() if v != GRID.center_node()]
        failed = tuple(sorted(rng.sample(nodes, 40)))
        for seed in range(10):
            scalar, fast = outcomes_pair(
                GRID, PBBFParams(0.3, 0.5), seed=seed, mode=mode,
                failed_nodes=failed,
            )
            assert_identical(scalar, fast)
            assert all(scalar.receive_times[v] is None for v in failed)

    def test_failure_scenario_realization_parity(self):
        """The scenario layer's failure sets flow through both kernels."""
        spec = ScenarioSpec.build("grid", {"side": 15}, failure_fraction=0.25)
        for seed in range(5):
            realized = spec.realize(seed)
            scalar, fast = outcomes_pair(
                realized.topology,
                PBBFParams(0.4, 0.6),
                seed=seed,
                source=realized.source,
                failed_nodes=realized.failed_nodes,
            )
            assert_identical(scalar, fast)

    def test_failed_random_topology(self):
        topo = RandomTopology.connected(60, 40.0, 10.0, random.Random(4))
        failed = tuple(sorted(random.Random(8).sample(range(1, 60), 12)))
        scalar, fast = outcomes_pair(
            topo, PBBFParams(0.5, 0.4), seed=6, source=0, failed_nodes=failed
        )
        assert_identical(scalar, fast)

    def test_campaign_energy_parity_with_failures(self):
        failed = (0, 1, 16, 17, 44, 199)
        a = IdealSimulator(
            GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5,
            fast_path=False, failed_nodes=failed,
        ).run_campaign(3)
        b = IdealSimulator(
            GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5,
            fast_path=True, failed_nodes=failed,
        ).run_campaign(3)
        assert a.outcomes == b.outcomes
        assert a.total_joules == b.total_joules


class TestFastPathSelection:
    def test_defaults_to_ambient_execution_config(self):
        sim = IdealSimulator(GRID, PBBFParams(0.5, 0.5))
        assert get_execution().fast_path is True
        assert sim._use_fast_path() is True
        with execution(fast_path=False):
            assert sim._use_fast_path() is False
        assert sim._use_fast_path() is True

    def test_explicit_flag_wins_over_context(self):
        forced = IdealSimulator(GRID, PBBFParams(0.5, 0.5), fast_path=True)
        with execution(fast_path=False):
            assert forced._use_fast_path() is True
        reference = IdealSimulator(GRID, PBBFParams(0.5, 0.5), fast_path=False)
        assert reference._use_fast_path() is False
