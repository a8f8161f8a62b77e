"""Earliest-arrival broadcast propagation on an ideal MAC/PHY.

Model (Section 4's "ideal MAC and physical layer with no collisions or
interference"):

* Time is divided into frames of ``Tframe`` seconds.  The first
  ``Tactive`` seconds of each frame are the ATIM window, during which
  **every** node is awake.  Outside the window a node is asleep unless its
  per-frame q-coin came up heads.
* An update is generated at the source inside an ATIM window, announced
  there, and transmitted right after the window (a *normal* broadcast):
  every neighbour receives it, ``L1`` channel-access seconds after the
  window closes.
* A node receiving a broadcast for the first time flips its p-coin
  (Figure 3): with probability p it forwards *immediately* — ``L1`` later,
  heard only by neighbours awake at that instant — otherwise it queues the
  packet, announces it in the next ATIM window, and transmits it ``L1``
  after that window closes, heard by every neighbour.
* Data packets are never sent inside an ATIM window (the 802.11 PSM rule
  the paper notes in Section 3); an immediate forward that would land in a
  window is deferred to the window's end.
* Duplicates are dropped and never re-forwarded, so each broadcast builds
  a spanning tree of first-arrival links.

Coin flips are *indexed* (hash-based on ``(node, frame)`` and
``(node, broadcast)``): the answer never depends on event processing
order, and overlapping broadcasts see consistent awake schedules.

The simulator is deliberately not built on :mod:`repro.sim` — propagation
on an ideal PHY is a deterministic earliest-arrival relaxation, so a
priority queue over arrival times is both simpler and an order of magnitude
faster than a full event-driven MAC, which matters at the paper's 5625-node
scale.  The detailed simulator (:mod:`repro.detailed`) is the event-driven
counterpart.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.net.topology import Topology, bucket_by_distance
from repro.util.rng import NodeCoins, hash_to_unit_interval
from repro.util.validation import check_non_negative_int, check_probability


class SchedulingMode(enum.Enum):
    """Which radio schedule the network runs."""

    #: PSM frames with PBBF's p/q coins (plain PSM is the p=q=0 corner).
    PSM_PBBF = "psm_pbbf"
    #: Radios always listening, no frames at all (the paper's "NO PSM").
    ALWAYS_ON = "always_on"


@dataclass(frozen=True)
class BroadcastOutcome:
    """Per-broadcast propagation record.

    ``receive_times[v]`` / ``hops[v]`` are ``None`` for nodes the broadcast
    never reached.  The source has ``receive_times[source] == t_generated``
    and ``hops[source] == 0``.
    """

    index: int
    source: int
    t_generated: float
    receive_times: Tuple[Optional[float], ...]
    hops: Tuple[Optional[int], ...]
    n_transmissions: int
    n_immediate_forwards: int
    n_normal_forwards: int
    #: ``parents[v]`` is the node whose transmission delivered v's first
    #: copy (None for the source and for unreached nodes).  First-arrival
    #: links form the spanning tree the paper's Eq. 11 analysis is about.
    parents: Tuple[Optional[int], ...] = ()

    @property
    def n_nodes(self) -> int:
        """Network size."""
        return len(self.receive_times)

    @property
    def n_received(self) -> int:
        """Number of nodes (source included) that got the broadcast."""
        return sum(1 for t in self.receive_times if t is not None)

    @property
    def coverage(self) -> float:
        """Fraction of nodes that received the broadcast."""
        return self.n_received / self.n_nodes

    def reached_fraction(self, fraction: float) -> bool:
        """Did the broadcast reach at least ``fraction`` of the nodes?"""
        check_probability("fraction", fraction)
        return self.n_received >= fraction * self.n_nodes

    def latency(self, node: int) -> Optional[float]:
        """Generation-to-reception delay at ``node`` (None if missed)."""
        t = self.receive_times[node]
        return None if t is None else t - self.t_generated

    def tree_edges(self) -> List[Tuple[int, int]]:
        """The (parent, child) first-arrival links of this broadcast."""
        return [
            (parent, child)
            for child, parent in enumerate(self.parents)
            if parent is not None
        ]

    def per_hop_latencies(self) -> List[float]:
        """Latency-per-hop for every reached non-source node."""
        result: List[float] = []
        for node, (t, h) in enumerate(zip(self.receive_times, self.hops)):
            if node == self.source or t is None or not h:
                continue
            result.append((t - self.t_generated) / h)
        return result


@dataclass
class CampaignResult:
    """Aggregated outcomes of a multi-broadcast run (one parameter point)."""

    params: PBBFParams
    mode: SchedulingMode
    config: AnalysisParameters
    source: int
    outcomes: List[BroadcastOutcome]
    shortest_hops: List[Optional[int]]
    total_joules: float
    duration: float
    #: Lazy dist -> node-id buckets backing :meth:`nodes_at_distance`.
    _distance_buckets: Optional[Dict[int, List[int]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_broadcasts(self) -> int:
        """Number of updates generated at the source."""
        return len(self.outcomes)

    def reliability(self, fraction: float) -> float:
        """Fraction of updates received by >= ``fraction`` of nodes (Figs 4-5)."""
        if not self.outcomes:
            raise ValueError("campaign has no outcomes")
        hits = sum(1 for o in self.outcomes if o.reached_fraction(fraction))
        return hits / len(self.outcomes)

    def mean_coverage(self) -> float:
        """Average per-broadcast coverage (the Fig 16/18 'updates received')."""
        if not self.outcomes:
            raise ValueError("campaign has no outcomes")
        return sum(o.coverage for o in self.outcomes) / len(self.outcomes)

    def joules_per_update(self) -> float:
        """Network-wide energy divided by updates generated."""
        if not self.outcomes:
            raise ValueError("campaign has no outcomes")
        return self.total_joules / len(self.outcomes)

    def joules_per_update_per_node(self) -> float:
        """Average per-node energy per update — the Figure 8/13 y-axis.

        The paper plots "the average energy consumed at a node, normalized
        for the number of updates generated" (Section 5.2).
        """
        return self.joules_per_update() / len(self.shortest_hops)

    def mean_per_hop_latency(self) -> Optional[float]:
        """Average latency-per-hop over all receptions (Fig 11 y-axis).

        ``None`` when nothing beyond the source ever received (deeply
        sub-threshold operating points).
        """
        values: List[float] = []
        for outcome in self.outcomes:
            values.extend(outcome.per_hop_latencies())
        if not values:
            return None
        return sum(values) / len(values)

    def nodes_at_distance(self, d: int) -> List[int]:
        """Node ids whose shortest-path distance from the source is ``d``."""
        if self._distance_buckets is None:
            # Built lazily once: figure code queries several hop buckets
            # per campaign and the scan is O(n) each time otherwise.
            self._distance_buckets = bucket_by_distance(self.shortest_hops)
        return list(self._distance_buckets.get(d, ()))

    def mean_hops_at_distance(self, d: int) -> Optional[float]:
        """Average hops actually travelled to reach distance-``d`` nodes.

        The Figures 9/10 metric: when reliability is marginal the broadcast
        worms along tortuous spanning-tree paths and this exceeds ``d``;
        at high reliability it collapses to ~``d``.
        """
        nodes = self.nodes_at_distance(d)
        values: List[float] = []
        for outcome in self.outcomes:
            for v in nodes:
                h = outcome.hops[v]
                if h is not None:
                    values.append(float(h))
        if not values:
            return None
        return sum(values) / len(values)

    def mean_latency_at_distance(self, d: int) -> Optional[float]:
        """Average generation-to-reception delay at distance-``d`` nodes."""
        nodes = self.nodes_at_distance(d)
        values: List[float] = []
        for outcome in self.outcomes:
            for v in nodes:
                latency = outcome.latency(v)
                if latency is not None:
                    values.append(latency)
        if not values:
            return None
        return sum(values) / len(values)


class IdealSimulator:
    """Collision-free broadcast simulator over an arbitrary topology.

    Parameters
    ----------
    topology:
        Usually a 75x75 :class:`~repro.net.topology.GridTopology`.
    params:
        PBBF's (p, q).  Ignored in ``ALWAYS_ON`` mode.
    config:
        Timing and power values (Table 1 defaults).
    seed:
        Root seed; every coin flip derives from it deterministically.
    source:
        Broadcast source; defaults to the grid centre (the paper's choice).
    mode:
        ``PSM_PBBF`` (default) or ``ALWAYS_ON``.
    q_coin_scope:
        Granularity of the stay-awake coin (a DESIGN.md ablation):
        ``"frame"`` (default, the paper's Figure 3 semantics — one coin per
        node per sleep period) or ``"broadcast"`` (one coin per node per
        broadcast — a sticky awake decision that collapses the per-frame
        renewal process onto exact bond percolation).
    fast_path:
        ``True`` forces the vectorized lockstep kernel (a campaign's
        broadcasts advance together), ``False`` forces the scalar heap
        loop (the reference implementation), and ``None`` (default)
        defers to the ambient execution config
        (:mod:`repro.runners.context`, the CLI's ``--no-fast-path``).
        Both paths produce bit-identical :class:`BroadcastOutcome`\\ s —
        the parity suite enforces it.
    failed_nodes:
        Failure injection: these nodes are dead before the first broadcast
        — they never receive, never forward, and count as unreached in
        every coverage metric.  The source must not be failed.  Energy
        accounting is untouched (a crashed radio's duty cycle is a
        modelling question this scenario knob deliberately leaves alone).
    """

    def __init__(
        self,
        topology: Topology,
        params: PBBFParams,
        config: Optional[AnalysisParameters] = None,
        seed: int = 0,
        source: Optional[int] = None,
        mode: SchedulingMode = SchedulingMode.PSM_PBBF,
        q_coin_scope: str = "frame",
        fast_path: Optional[bool] = None,
        failed_nodes: Optional[Sequence[int]] = None,
    ) -> None:
        if q_coin_scope not in ("frame", "broadcast"):
            raise ValueError(
                f"q_coin_scope must be 'frame' or 'broadcast', got {q_coin_scope!r}"
            )
        self.topology = topology
        self.params = params
        self.config = config if config is not None else AnalysisParameters()
        self.mode = mode
        self.q_coin_scope = q_coin_scope
        self._current_broadcast = 0
        if source is None:
            center = getattr(topology, "center_node", None)
            source = center() if callable(center) else 0
        if not 0 <= source < topology.n_nodes:
            raise IndexError(f"source {source} outside topology")
        self.source = source
        self.failed_nodes: Tuple[int, ...] = tuple(sorted(set(failed_nodes or ())))
        for node in self.failed_nodes:
            if not 0 <= node < topology.n_nodes:
                raise IndexError(f"failed node {node} outside topology")
        if source in self.failed_nodes:
            raise ValueError(f"source {source} cannot be a failed node")
        # Scalar-path membership list and fast-path mask; None when the
        # scenario has no failures so both kernels skip the extra work.
        self._failed_mask: Optional[np.ndarray] = None
        if self.failed_nodes:
            mask = np.zeros(topology.n_nodes, dtype=bool)
            mask[list(self.failed_nodes)] = True
            self._failed_mask = mask
        self.fast_path = fast_path
        self._seed = seed
        self._q_salt = 0x51C0FFEE  # distinguishes q-coins from p-coins
        self._p_salt = 0x9B0ADCA5

    def _use_fast_path(self) -> bool:
        """Resolve the per-run kernel choice (explicit flag, else ambient)."""
        if self.fast_path is not None:
            return self.fast_path
        # Imported lazily: repro.runners imports this module at package
        # init, so a top-level import here would be circular.
        from repro.runners.context import get_execution

        return get_execution().fast_path

    # -- schedule geometry ----------------------------------------------------

    def frame_of(self, t: float) -> int:
        """Index of the frame containing time ``t``."""
        return int(math.floor(t / self.config.t_frame))

    def frame_start(self, frame: int) -> float:
        """Start time of ``frame``."""
        return frame * self.config.t_frame

    def in_active_window(self, t: float) -> bool:
        """Is ``t`` inside an ATIM window (when everyone is awake)?"""
        phase = t - self.frame_start(self.frame_of(t))
        return phase < self.config.t_active

    def is_awake(self, node: int, t: float) -> bool:
        """Is ``node`` listening at time ``t``?

        Awake during every ATIM window; outside it, awake iff the node's
        per-frame q-coin came up heads (Figure 3's Sleep-Decision-Handler).
        """
        if self.mode is SchedulingMode.ALWAYS_ON:
            return True
        if self.in_active_window(t):
            return True
        if self.q_coin_scope == "frame":
            key = self.frame_of(t)
        else:  # per-broadcast scope (ablation)
            key = -1 - self._current_broadcast
        coin = hash_to_unit_interval(self._seed ^ self._q_salt, node, key)
        return coin < self.params.q

    def _forwards_immediately(self, node: int, broadcast_index: int) -> bool:
        """The node's p-coin for this broadcast (Figure 3's Receive-Broadcast)."""
        if self.mode is SchedulingMode.ALWAYS_ON:
            return True
        coin = hash_to_unit_interval(
            self._seed ^ self._p_salt, node, broadcast_index
        )
        return coin < self.params.p

    def _defer_out_of_window(self, t: float) -> float:
        """Data cannot be sent inside an ATIM window; push ``t`` past it."""
        if self.mode is SchedulingMode.ALWAYS_ON:
            return t
        if self.in_active_window(t):
            return self.frame_start(self.frame_of(t)) + self.config.t_active
        return t

    def _next_window_send_time(self, t: float) -> float:
        """Transmission time of a normal broadcast queued at time ``t``.

        Announced in the next frame's ATIM window, transmitted L1 after the
        window closes.
        """
        next_frame = self.frame_of(t) + 1
        return self.frame_start(next_frame) + self.config.t_active + self.config.l1

    # -- propagation -----------------------------------------------------------

    def run_broadcast(self, index: int) -> BroadcastOutcome:
        """Propagate broadcast number ``index`` and record its outcome.

        The update is generated at ``index * update_interval`` (shifted into
        the containing frame's ATIM window, where the paper's updates always
        arrive) and propagates until no transmission remains pending.

        Dispatches to the vectorized lockstep kernel (over this one
        broadcast) unless the scalar reference loop was requested
        (``fast_path=False`` or the ambient execution config); the two
        are bit-identical.
        """
        check_non_negative_int("index", index)
        self._current_broadcast = index
        if self._use_fast_path():
            return self._run_lockstep([index])[0]
        return self._run_broadcast_scalar(index)

    def _generation_times(self, index: int) -> Tuple[float, float]:
        """(generation time, first transmission time) of broadcast ``index``."""
        cfg = self.config
        t_nominal = index * cfg.update_interval
        if self.mode is SchedulingMode.ALWAYS_ON:
            return t_nominal, t_nominal + cfg.l1
        frame = self.frame_of(t_nominal)
        if t_nominal - self.frame_start(frame) >= cfg.t_active:
            frame += 1  # arrival fell past the window; use the next one
        t_gen = self.frame_start(frame)
        return t_gen, t_gen + cfg.t_active + cfg.l1

    def _run_broadcast_scalar(self, index: int) -> BroadcastOutcome:
        """Reference implementation: one heap entry per transmission."""
        cfg = self.config
        n = self.topology.n_nodes
        airtime = cfg.packet_airtime
        t_gen, first_tx = self._generation_times(index)

        receive_times: List[Optional[float]] = [None] * n
        hops: List[Optional[int]] = [None] * n
        parents: List[Optional[int]] = [None] * n
        receive_times[self.source] = t_gen
        hops[self.source] = 0
        n_transmissions = 0
        n_immediate = 0
        n_normal = 0

        # Heap of pending *transmissions*: (send_time, seq, sender, hop,
        # immediate?).  Receptions are resolved when the transmission fires,
        # which keeps arrival processing in global time order.
        heap: List[Tuple[float, int, int, int, bool]] = []
        seq = 0
        heapq.heappush(heap, (first_tx, seq, self.source, 0, False))
        n_normal += 1

        failed = self._failed_mask
        while heap:
            t_send, _, sender, hop, immediate = heapq.heappop(heap)
            n_transmissions += 1
            t_arrive = t_send + airtime
            for nbr in self.topology.neighbors(sender):
                if receive_times[nbr] is not None:
                    continue  # duplicate: dropped, never re-forwarded
                if failed is not None and failed[nbr]:
                    continue  # dead radio: the broadcast routes around it
                if immediate and not self.is_awake(nbr, t_send):
                    continue  # immediate forward missed a sleeping neighbour
                receive_times[nbr] = t_arrive
                hops[nbr] = hop + 1
                parents[nbr] = sender
                if self._forwards_immediately(nbr, index):
                    raw = t_arrive + cfg.l1
                    seq += 1
                    heapq.heappush(
                        heap,
                        (self._defer_out_of_window(raw), seq, nbr, hop + 1, True),
                    )
                    n_immediate += 1
                else:
                    seq += 1
                    heapq.heappush(
                        heap,
                        (self._next_window_send_time(t_arrive), seq, nbr, hop + 1, False),
                    )
                    n_normal += 1

        return BroadcastOutcome(
            index=index,
            source=self.source,
            t_generated=t_gen,
            receive_times=tuple(receive_times),
            hops=tuple(hops),
            n_transmissions=n_transmissions,
            n_immediate_forwards=n_immediate,
            n_normal_forwards=n_normal,
            parents=tuple(parents),
        )

    def _run_lockstep(self, indices: Sequence[int]) -> List[BroadcastOutcome]:
        """Vectorized kernel: all of ``indices`` advance together, one round at a time.

        Node state lives in flat ``(B * n)`` arrays indexed
        ``slot * n + node``, and pending transmissions in flat arrays kept
        in creation order.  Each round takes, for every broadcast, all
        pending rows at that broadcast's earliest send time and resolves
        them at once: one padded-CSR neighbour gather, one q-coin draw for
        the immediate forwards, one first-claim scatter.  ``run_broadcast``
        is this kernel over one index.  Scalar-heap equivalence relies on
        three invariants:

        * every coin is keyed by ``(node, broadcast index)`` or
          ``(node, frame)``, never by processing order, so broadcasts
          advancing side by side cannot disturb one another;
        * a broadcast's rows stay in creation (seq) order, and a gather
          enumerates (sender, neighbour) pairs row-major, so the first
          claim of a node is the one the scalar heap would make;
        * every send time comes from the same float expressions as
          :meth:`_defer_out_of_window` and :meth:`_next_window_send_time`,
          and elementwise ``floor``, ``*`` and ``+`` are IEEE-identical to
          the scalar ones, so grouping by exact float equality matches the
          heap's ordering.
        """
        cfg = self.config
        topo = self.topology
        n = topo.n_nodes
        padded_nbrs, padded_valid = topo.csr.padded
        t_frame, t_active = cfg.t_frame, cfg.t_active
        always_on = self.mode is SchedulingMode.ALWAYS_ON
        n_slots = len(indices)
        index_arr = np.asarray(indices, dtype=np.int64)
        starts = [self._generation_times(index) for index in indices]
        offsets = np.arange(n_slots, dtype=np.int64) * n

        failed = self._failed_mask
        # Failed radios are masked out of every gather by pre-marking them
        # discovered; the output pass puts them back to None.
        if failed is None:
            discovered = np.zeros(n_slots * n, dtype=bool)
        else:
            discovered = np.tile(failed, n_slots)
        receive_t = np.zeros(n_slots * n, dtype=np.float64)
        hops_arr = np.full(n_slots * n, -1, dtype=np.int64)
        parents_arr = np.full(n_slots * n, -1, dtype=np.int64)
        claim_row = np.empty(n_slots * n, dtype=np.int64)  # first-claim buffer
        sources = offsets + self.source
        discovered[sources] = True
        receive_t[sources] = [t_gen for t_gen, _ in starts]
        hops_arr[sources] = 0

        node_ids = np.arange(n)
        # One (B, n) p-coin table drawn up front: the key is (node, index),
        # so every per-round lookup is a gather from it.
        forwards_all: Optional[np.ndarray] = None
        if not always_on:
            forwards_all = NodeCoins(self._seed ^ self._p_salt, n).heads(
                self.params.p, node_ids, index_arr[:, None]
            ).ravel()
        q_coins = NodeCoins(self._seed ^ self._q_salt, n)
        awake_masks: Dict[int, np.ndarray] = {}  # per q-coin key, one broadcast
        # Pending transmissions in creation order: send times, and rows of
        # (slot, sender, hop, immediate?) moved as one block.
        p_time = np.array([first_tx for _, first_tx in starts], dtype=np.float64)
        p_rows = np.zeros((n_slots, 4), dtype=np.int64)
        p_rows[:, 0] = np.arange(n_slots)
        p_rows[:, 1] = self.source
        single = n_slots == 1
        width = padded_nbrs.shape[1]
        # Row gathers use ``take``, which is several times cheaper than
        # fancy indexing on these small 2-D arrays.
        while p_time.size:
            # One broadcast needs no per-slot minimum, and its send time
            # stays a scalar through the round (the scalar loop's own
            # methods then give its timings).
            if single:
                t_send = float(p_time.min())
                take = p_time == t_send
            else:
                earliest = np.full(n_slots, np.inf)
                np.minimum.at(earliest, p_rows[:, 0], p_time)
                take = p_time == earliest.take(p_rows[:, 0])
            now, later = np.flatnonzero(take), np.flatnonzero(~take)
            if not single:
                t_send = p_time.take(now)
            batch = p_rows.take(now, axis=0)
            p_time, p_rows = p_time.take(later), p_rows.take(later, axis=0)
            slot, sender, _hop, immediate = batch.T

            # Row-major over (sender, neighbour position) = the scalar visit
            # order, so a node's first occurrence is its scalar first claim.
            nbrs2d = padded_nbrs.take(sender, axis=0)
            flat2d = nbrs2d if single else nbrs2d + offsets.take(slot)[:, None]
            keep2d = padded_valid.take(sender, axis=0) & ~discovered.take(flat2d)
            claims = np.flatnonzero(keep2d)
            rows = claims // width
            cand = flat2d.take(claims)
            if not always_on and immediate.any():
                # Immediate forwards outside an ATIM window only reach
                # neighbours whose q-coin, keyed by (node, frame) or by
                # (node, -1 - index) in the sticky-ablation scope, kept
                # them awake; normal forwards (post-ATIM) reach all.
                awake = None
                if single:
                    if not self.in_active_window(t_send):
                        # One broadcast meets a frame over many rounds:
                        # draw the frame's whole-network mask once.
                        key = (
                            self.frame_of(t_send)
                            if self.q_coin_scope == "frame"
                            else -1 - indices[0]
                        )
                        mask = awake_masks.get(key)
                        if mask is None:
                            mask = awake_masks[key] = q_coins.heads(
                                self.params.q, node_ids, key
                            )
                        awake = mask.take(cand) | (immediate == 0).take(rows)
                else:
                    # Many broadcasts span many frames per round: hash
                    # just the candidate neighbours.
                    frame = np.floor(t_send / t_frame)
                    check = (immediate == 1) & (t_send - frame * t_frame >= t_active)
                    if check.any():
                        if self.q_coin_scope == "frame":
                            keys = frame.astype(np.int64)
                        else:
                            keys = -1 - index_arr.take(slot)
                        awake = q_coins.heads(
                            self.params.q, nbrs2d.take(claims), keys.take(rows)
                        ) | ~check.take(rows)
                if awake is not None:
                    cand, rows = cand[awake], rows[awake]
            if cand.size == 0:
                continue
            # First-claim resolution without a sort: scatter row ids in
            # reverse so the earliest claim lands last, then keep exactly
            # the entries whose row won.  (Duplicate-index assignment is
            # last-write-wins; a row never lists a neighbour twice.)
            claim_row[cand[::-1]] = rows[::-1]
            first = claim_row.take(cand) == rows
            winners = cand[first]  # already in claim (seq) order
            owner = rows[first]

            # Arrival, and each winner's own transmission time: immediate
            # forwards at _defer_out_of_window(t_arrive + l1), the rest at
            # _next_window_send_time(t_arrive).  The arrays repeat those
            # methods' float expressions.
            if single:
                t_arrive = t_send + cfg.packet_airtime
                t_imm = self._defer_out_of_window(t_arrive + cfg.l1)
                t_norm = self._next_window_send_time(t_arrive)
            else:
                t_arrive = (t_send + cfg.packet_airtime).take(owner)
                t_imm = t_arrive + cfg.l1
                if not always_on:
                    start = np.floor(t_imm / t_frame) * t_frame
                    t_imm = np.where(t_imm - start < t_active, start + t_active, t_imm)
                    t_norm = (
                        (np.floor(t_arrive / t_frame) + 1) * t_frame + t_active + cfg.l1
                    )
            receive_t[winners] = t_arrive
            discovered[winners] = True
            block = batch.take(owner, axis=0)  # the winners' rows, rewritten
            block[:, 2] += 1
            hops_arr[winners] = block[:, 2]
            parents_arr[winners] = block[:, 1]
            block[:, 1] = winners if single else winners - offsets.take(block[:, 0])
            if always_on:
                block[:, 3] = 1
                t_next = np.full(winners.size, t_imm) if single else t_imm
            else:
                forwards = forwards_all.take(winners)
                block[:, 3] = forwards
                t_next = np.where(forwards, t_imm, t_norm)
            p_rows = np.concatenate((p_rows, block))
            p_time = np.concatenate((p_time, t_next))

        # Every reached non-source node made exactly one transmission, and
        # its p-coin says which kind; the source made one normal broadcast.
        reached = (hops_arr > 0).reshape(n_slots, n)
        n_reached = reached.sum(axis=1).tolist()
        if always_on:
            n_immediate = n_reached
        else:
            n_immediate = (reached & forwards_all.reshape(n_slots, n)).sum(axis=1).tolist()
        outcomes: List[BroadcastOutcome] = []
        for k, index in enumerate(indices):
            # Built one broadcast at a time, so only one row of Python
            # lists is ever alive.
            lo, hi = k * n, (k + 1) * n
            receive_list: List[Optional[float]] = receive_t[lo:hi].tolist()
            hops_list: List[Optional[int]] = hops_arr[lo:hi].tolist()
            parents_list: List[Optional[int]] = parents_arr[lo:hi].tolist()
            parents_list[self.source] = None
            unreached = ~discovered[lo:hi]
            if failed is not None:
                unreached |= failed
            for v in np.flatnonzero(unreached).tolist():
                receive_list[v] = None
                hops_list[v] = None
                parents_list[v] = None
            n_normal = 1 + n_reached[k] - n_immediate[k]
            outcomes.append(
                BroadcastOutcome(
                    index=index,
                    source=self.source,
                    t_generated=starts[k][0],
                    receive_times=tuple(receive_list),
                    hops=tuple(hops_list),
                    n_transmissions=n_immediate[k] + n_normal,
                    n_immediate_forwards=n_immediate[k],
                    n_normal_forwards=n_normal,
                    parents=tuple(parents_list),
                )
            )
        return outcomes

    def run_campaign(self, n_broadcasts: int) -> CampaignResult:
        """Generate ``n_broadcasts`` updates and aggregate their outcomes.

        Energy accounting follows the paper's analysis: the duty-cycle term
        is the Eq. 7 expectation (which Figure 8 verifies the simulation
        matches exactly), plus the transmit-power premium for every actual
        transmission.  See DESIGN.md's ablation notes for what is folded in.
        """
        if n_broadcasts <= 0:
            raise ValueError(f"n_broadcasts must be > 0, got {n_broadcasts}")
        from repro.obs import get_recorder

        with get_recorder().span(
            "kernel.ideal",
            broadcasts=n_broadcasts,
            nodes=self.topology.n_nodes,
            fast_path=self._use_fast_path(),
        ):
            if self._use_fast_path():
                outcomes = self._run_lockstep(range(n_broadcasts))
            else:
                outcomes = [self.run_broadcast(i) for i in range(n_broadcasts)]
        duration = n_broadcasts * self.config.update_interval
        total_joules = self._campaign_energy(outcomes, duration)
        return CampaignResult(
            params=self.params,
            mode=self.mode,
            config=self.config,
            source=self.source,
            outcomes=outcomes,
            shortest_hops=self.topology.hop_distances_from(self.source),
            total_joules=total_joules,
            duration=duration,
        )

    # -- energy ------------------------------------------------------------

    def _campaign_energy(
        self, outcomes: Sequence[BroadcastOutcome], duration: float
    ) -> float:
        cfg = self.config
        power = cfg.power
        if self.mode is SchedulingMode.ALWAYS_ON:
            duty_power = power.listen_w
        else:
            q = self.params.q
            awake_per_frame = cfg.t_active + q * cfg.t_sleep
            asleep_per_frame = (1.0 - q) * cfg.t_sleep
            duty_power = (
                awake_per_frame * power.listen_w + asleep_per_frame * power.sleep_w
            ) / cfg.t_frame
        base = self.topology.n_nodes * duty_power * duration
        n_tx = sum(o.n_transmissions for o in outcomes)
        tx_premium = n_tx * cfg.packet_airtime * (power.tx_w - power.listen_w)
        return base + tx_premium
