"""The benchmark's three workloads, driven through the program's public API.

Each workload turns a seed into one fixed *unit* of simulated work and
returns an :class:`Outcome`: the simulated results (deterministic per
seed), the wall time spent setting up and running, and the verdicts of the
program's own checks.  An *operation* is one client transaction offered to
the simulated system; it fails when it is refused, when it is not committed
by the end of the quiesced run, or when its run failed a program check.

Outcomes are read through :class:`OutcomeTap`, which observes the commit
listener hooks and the mempool the program already calls.  The tap draws no
randomness and schedules nothing, so it cannot change a simulated result.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.client.workload import SaturatedSource

#: fig3-saturated: the paper's Fig. 3 headline point (Achilles, f=10, LAN).
FIG3_F = 10
FIG3_BATCH = 400
FIG3_PAYLOAD = 256
FIG3_LOAD_MS = 1500.0
FIG3_WARMUP_MS = 300.0
#: Simulated time after the source stops, so every minted transaction can
#: commit (Achilles commits a block one round trip after proposing it).
FIG3_QUIESCE_MS = 50.0

#: chaos-lossy: several short Achilles f=2 campaigns per unit.  The fault
#: plan is drawn from the campaign seed, and one campaign's cost swings by
#: 2x between seeds, so a unit pools CHAOS_CAMPAIGNS of them.  The plan
#: has no crashes and no partitions: with either, a replica can lose a
#: block-sync request for good (it asks once, and the proposer it asked
#: is down or cut off), and the cluster then crawls until the campaign
#: ends, stranding thousands of offered transactions in the mempool.  Nor
#: does it delay links past the 120 ms view timeout: a view change can
#: orphan a proposal, and its batch is lost, since the open-loop clients
#: never resend.  (On the lossy fabric a view still times out in 31 of
#: campaign seeds 0-399; none of them lost a batch.)
CHAOS_CAMPAIGNS = 8
CHAOS_DURATION_MS = 2000.0
CHAOS_QUIESCE_MS = 800.0
#: Many short load steps: a unit's total offered load then varies by about
#: 2% between seeds, against 5% with 8 steps.
CHAOS_CHURN_EVENTS = 32
CHAOS_LOSS, CHAOS_DUP, CHAOS_CORRUPT = 0.02, 0.01, 0.005
#: The open-loop generator runs to the end of a campaign; transactions
#: offered in its last CHAOS_TAIL_MS cannot be held to the commit deadline
#: and are not counted as operations (they still give latency samples).
CHAOS_TAIL_MS = 200.0

#: shard-2pc: S=4 MinBFT f=1 shards behind the router, shaped open-loop
#: traffic with Zipf hot keys and 10% cross-shard 2PC.
SHARDS = 4
SHARD_RATE_TPS = 3000.0
SHARD_CROSS = 0.1
SHARD_WARMUP_MS = 100.0
SHARD_LOAD_MS = 600.0
#: After the load phase: 2PC initiation stops and the monitors are told
#: faults are over; single writes go on (the liveness check needs
#: progress), then all traffic stops and the deployment drains.
SHARD_SETTLE_MS = 200.0
SHARD_DRAIN_MS = 300.0
#: Client-side retries of a 2PC transaction that aborted on a lock conflict.
TXN_ATTEMPTS = 8
TXN_BACKOFF_MS = 4.0


#: Simulated milliseconds per timed slice.  Slices line up across repeats of
#: a seed, so a run can take each slice's median repeat: bursts of load from
#: other processes on a shared machine then drop out of the sum.
SLICE_MS = 50.0


class _ProbeEvent:
    __slots__ = ("at", "kind", "node", "key")

    def __init__(self, at: float, kind: int, node: int, key: int) -> None:
        self.at = at
        self.kind = kind
        self.node = node
        self.key = key


class _ProbeNode:
    __slots__ = ("seen", "log")

    def __init__(self) -> None:
        self.seen: dict = {}
        self.log: list = []

    def handle(self, event: _ProbeEvent, out: list) -> None:
        self.seen[event.key] = self.seen.get(event.key, 0) + 1
        if len(self.seen) > 64:
            self.seen.clear()
        self.log.append(event.kind)
        if len(self.log) > 32:
            del self.log[:16]
        if event.kind == 0:
            out.append(_ProbeEvent(event.at + 1.0, 1, (event.node + 1) % 7,
                                   event.key))


class ReferenceProbe:
    """A fixed piece of Python work, timed right after every slice.

    It is a small discrete-event loop of the benchmark's own: seven nodes
    pass events through a heap, count them in small dicts and hash every
    eighth one.  That is the simulator's kind of work -- bytecode dispatch,
    method calls, short-lived objects, hashing -- so it slows down with the
    program when another tenant of the machine takes the core or its
    caches, and a slice's time over the probe's time after it is a cost
    that depends much less on the machine's load.  (A probe of random reads
    from a large table tracked those slowdowns only partly.)

    The probe shares the program's process, so it is kept apart from the
    program's heap as far as Python allows: it holds almost no memory
    between calls, and the collector is off while it runs, so no collection
    of the program's objects lands in the probe's time.  The program can
    still touch it through the CPU caches, as any code run between slices
    would.
    """

    STEPS = 1_800

    def __init__(self) -> None:
        rng = random.Random(5)
        self.keys = [rng.randrange(1000) for _ in range(self.STEPS)]

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            nodes = [_ProbeNode() for _ in range(7)]
            queue: list = []
            out: list = []
            seq = 0
            start = time.perf_counter()
            for step, key in enumerate(self.keys):
                heapq.heappush(queue, (float(step), seq,
                                       _ProbeEvent(float(step), 0, step % 7,
                                                   key)))
                seq += 1
                _, _, event = heapq.heappop(queue)
                nodes[event.node].handle(event, out)
                while out:
                    event = out.pop()
                    heapq.heappush(queue, (event.at, seq, event))
                    seq += 1
                if step % 8 == 0:
                    hashlib.sha256(repr((key, step)).encode()).digest()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


@dataclass
class Part:
    """One simulation of a unit; a chaos-lossy unit has one per campaign."""

    sim_s: float
    committed: int
    #: (wall seconds, probe seconds) of each SLICE_MS of simulated time, in
    #: order; the probe time is 0 when the unit ran without a probe
    slices: list


@dataclass
class Outcome:
    """One unit of simulated work: its results and what it cost."""

    workload: str
    seed: int
    sim_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    committed: int = 0
    blocks_committed: int = 0
    blocks_proposed: int = 0
    e2e_ms: list = field(default_factory=list)
    txn_ms: list = field(default_factory=list)
    #: failed program checks; any entry makes every operation fail
    problems: list = field(default_factory=list)
    #: wall seconds from the start of each part to its first simulated event
    setup_s: list = field(default_factory=list)
    #: probe seconds timed right after each part's set-up (0 without probe)
    setup_probe_s: list = field(default_factory=list)
    #: wall seconds of the whole unit, set-up and probes included
    wall_s: float = 0.0
    parts: list = field(default_factory=list)
    #: deterministic counters for the per-layer report
    counts: dict = field(default_factory=dict)
    digest_parts: list = field(default_factory=list)

    @property
    def run_s(self) -> float:
        """Wall seconds spent simulating: the sum of the unit's slices."""
        return sum(wall for part in self.parts for wall, _ in part.slices)

    @property
    def sim_digest(self) -> str:
        """Digest over the simulated outcomes; identical for equal seeds."""
        return hashlib.sha256(repr(self.digest_parts).encode()).hexdigest()[:16]


def _pct(samples: list, p: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def latency_summary(samples: list) -> tuple:
    """(count, p50, p99) of a latency sample, in its own unit."""
    return len(samples), _pct(samples, 0.50), _pct(samples, 0.99)


class OutcomeTap:
    """Observes commit-listener hooks and mempool admissions.

    As a listener object it forwards to the program's ``MetricsCollector``
    (fig3-saturated builds its cluster with it).  :meth:`patch` makes
    ``InvariantMonitor`` report to it too, for runs whose monitor the
    program builds itself; ``observe_offers`` also reports every
    transaction offered to a ``QueueSource``.  It also records when
    ``Simulator.run`` is first entered, which ends a part's set-up, and
    times the run in slices of simulated time (see :data:`SLICE_MS`).
    When ``probe`` is set, it is timed once right after the set-up and once
    after every slice.

    The patches call the tap's own methods (``on_*`` and :meth:`offer`)
    through the instance at call time, so a layer shim can time the
    benchmark's bookkeeping apart from the program's.
    """

    def __init__(self) -> None:
        self.collector = None
        self.first_run_at: Optional[float] = None
        self.setup_probe_s = 0.0
        self.proposed: set = set()
        self.committed_blocks: set = set()
        self.replied: set = set()
        self._batches: set = set()
        self.offered: list = []
        self.refused = 0
        self.clusters: list = []
        self.slices: list = []
        #: timed after every slice when set (see :class:`ReferenceProbe`)
        self.probe: Optional[Callable[[], float]] = None
        self._undo: list = []

    def reset(self, collector) -> None:
        """Start a new part; ``collector`` receives the forwarded hooks.
        Slice times accumulate until :meth:`take_slices`."""
        self.collector = collector
        self.first_run_at = None
        self.setup_probe_s = 0.0
        self.proposed = set()
        self.committed_blocks = set()
        self.replied = set()
        self._batches = set()
        self.offered = []
        self.refused = 0
        self.clusters = []

    def take_slices(self) -> list:
        """The (slice, probe) times recorded since the last call."""
        slices, self.slices = self.slices, []
        return slices

    # -- CommitListener ------------------------------------------------
    def on_propose(self, node, block, now) -> None:
        self.proposed.add(block.hash)
        if self.collector is not None:
            self.collector.on_propose(node, block, now)

    def on_commit(self, node, block, now) -> None:
        self.committed_blocks.add(block.hash)
        if self.collector is not None:
            self.collector.on_commit(node, block, now)

    def on_replies(self, node, txs, now) -> None:
        # Every replica reports every committed batch; record each once.
        batch = (txs[0].key, txs[-1].key, len(txs)) if txs else None
        if batch is not None and batch not in self._batches:
            self._batches.add(batch)
            self.replied.update(tx.key for tx in txs)
        if self.collector is not None:
            self.collector.on_replies(node, txs, now)

    def offer(self, tx, accepted: bool) -> None:
        """A transaction offered to a ``QueueSource`` (see :meth:`patch`)."""
        self.offered.append((tx.created_at, tx.key))
        if not accepted:
            self.refused += 1

    # -- patches ---------------------------------------------------------
    def patch(self, observe_offers: bool = False) -> "OutcomeTap":
        """Hook ``Simulator.run``, ``InvariantMonitor`` and, optionally,
        ``QueueSource.submit``; :meth:`unpatch` restores them."""
        from repro.client.workload import QueueSource
        from repro.harness.invariants import InvariantMonitor
        from repro.sim.loop import Simulator

        tap = self

        def hook(owner, name, make):
            original = owner.__dict__[name]
            self._undo.append((owner, name, original))
            setattr(owner, name, make(original))

        def run(original):
            def run(sim, until=None, max_events=None):
                clock = time.perf_counter
                if tap.first_run_at is None:
                    tap.first_run_at = clock()
                    if tap.probe is not None:
                        tap.setup_probe_s = tap.probe()
                if until is None or max_events is not None:
                    return original(sim, until, max_events)
                # Advance in slices that end on multiples of SLICE_MS of
                # simulated time: the same events run in the same order,
                # and every slice's wall time is recorded.
                while True:
                    stop = min(until, (sim.now // SLICE_MS + 1) * SLICE_MS)
                    start = clock()
                    original(sim, stop)
                    elapsed = clock() - start
                    probe = tap.probe
                    tap.slices.append((elapsed, probe() if probe else 0.0))
                    if stop >= until or sim._stopped:
                        return
            return run

        def forward(name):
            def make(original):
                def hooked(monitor, node, item, now):
                    getattr(tap, name)(node, item, now)
                    return original(monitor, node, item, now)
                return hooked
            return make

        def attach(original):
            def attach(monitor, cluster, *args, **kwargs):
                tap.clusters.append(cluster)
                return original(monitor, cluster, *args, **kwargs)
            return attach

        def submit(original):
            def submit(source, tx):
                accepted = original(source, tx)
                tap.offer(tx, accepted)
                return accepted
            return submit

        hook(Simulator, "run", run)
        for name in ("on_propose", "on_commit", "on_replies"):
            hook(InvariantMonitor, name, forward(name))
        hook(InvariantMonitor, "attach", attach)
        if observe_offers:
            hook(QueueSource, "submit", submit)
        return self

    def unpatch(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _network_counts(networks) -> dict:
    counts = {"messages": 0, "bytes": 0, "delivered_unique": 0,
              "retransmits": 0}
    for network in networks:
        stats = network.stats
        counts["messages"] += stats.messages_sent
        counts["bytes"] += stats.bytes_sent
        counts["delivered_unique"] += (stats.messages_delivered
                                       - stats.duplicates_delivered)
        counts["retransmits"] += network.transport_totals().get(
            "retransmissions", 0)
    return counts


def _add_counts(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _tips(nodes) -> list:
    return [(node.store.committed_tip.height, node.store.committed_tip.hash)
            for node in nodes]


# ----------------------------------------------------------------------
# fig3-saturated
# ----------------------------------------------------------------------
class StoppingSource(SaturatedSource):
    """The always-full source, which stops minting when the load phase ends."""

    def take(self, count, now):
        return super().take(count, now) if now < FIG3_LOAD_MS else []

    def pending(self):
        return super().pending() if self.sim.now < FIG3_LOAD_MS else 0


def fig3_saturated(seed: int, tap: OutcomeTap) -> Outcome:
    """Achilles f=10 on the LAN under an always-full source, quiesced.

    ``run_experiment`` cannot stop its saturated source, so blocks still in
    flight at the end would count as failed operations.  This builds the
    same cluster ``run_experiment`` builds (same config, source, collector
    and ``build_cluster`` call) with a source that stops minting at the end
    of the load phase, then runs until every minted transaction commits.
    """
    import repro.core.registry  # noqa: F401  (registers "achilles")
    from repro.consensus.cluster import build_cluster
    from repro.consensus.config import ProtocolConfig
    from repro.harness.metrics import MetricsCollector
    from repro.harness.runner import PROTOCOLS
    from repro.net.latency import LAN_PROFILE
    from repro.tee.enclave import EnclaveProfile

    out = Outcome("fig3-saturated", seed)
    start = time.perf_counter()
    spec = PROTOCOLS["achilles"]
    hop = LAN_PROFILE.one_way_ms
    tap.reset(MetricsCollector(warmup_ms=FIG3_WARMUP_MS, reply_one_way_ms=hop))
    sources: list = []

    def source_factory(sim):
        sources.append(StoppingSource(sim, payload_size=FIG3_PAYLOAD,
                                      client_one_way_ms=hop))
        return sources[-1]

    config = ProtocolConfig(n=spec.committee(FIG3_F), f=FIG3_F,
                            batch_size=FIG3_BATCH, payload_size=FIG3_PAYLOAD,
                            enclave=EnclaveProfile(), seed=seed)
    cluster = build_cluster(node_factory=spec.node_cls, config=config,
                            latency=LAN_PROFILE, source_factory=source_factory,
                            listener=tap, seed=seed)
    cluster.sim.trace.enabled = False
    cluster.start()
    cluster.run(FIG3_LOAD_MS + FIG3_QUIESCE_MS)
    try:
        cluster.assert_safety()
    except AssertionError as exc:
        out.problems.append(f"assert_safety: {exc}")
    out.wall_s = time.perf_counter() - start
    out.setup_s.append(tap.first_run_at - start)
    out.setup_probe_s.append(tap.setup_probe_s)

    minted = sources[0].minted
    collector = tap.collector
    out.sim_s = (FIG3_LOAD_MS + FIG3_QUIESCE_MS) / 1000.0
    out.attempted = minted
    out.committed = len(tap.replied)
    out.failed = minted - out.committed
    out.parts.append(Part(out.sim_s, out.committed, tap.take_slices()))
    out.blocks_committed = len(tap.committed_blocks)
    out.blocks_proposed = len(tap.proposed)
    out.e2e_ms = collector.e2e_latency.samples
    out.counts = _network_counts([cluster.network])
    out.counts["events"] = cluster.sim.events_processed
    out.counts["window_txs"] = collector.txs_committed
    out.counts["window_blocks"] = collector.blocks_committed
    out.counts["window_ms"] = FIG3_LOAD_MS - FIG3_WARMUP_MS
    out.digest_parts = [
        _tips(cluster.nodes), minted, out.committed, out.blocks_proposed,
        cluster.sim.events_processed, latency_summary(out.e2e_ms),
        out.counts["messages"], out.counts["bytes"],
    ]
    return out


# ----------------------------------------------------------------------
# chaos-lossy
# ----------------------------------------------------------------------
def chaos_spec():
    """The campaign every chaos-lossy part runs (only the seed varies)."""
    from repro.faults.chaos import ChaosSpec

    return ChaosSpec(protocol="achilles", f=2,
                     duration_ms=CHAOS_DURATION_MS,
                     quiesce_ms=CHAOS_QUIESCE_MS,
                     crashes=0, rollbacks=0, partitions=0,
                     churn_events=CHAOS_CHURN_EVENTS,
                     loss=CHAOS_LOSS, dup=CHAOS_DUP, corrupt=CHAOS_CORRUPT)


def chaos_check(result) -> list:
    """The program's verdicts on one campaign plus its engagement."""
    problems = [f"seed {result.seed}: {v}" for v in result.violations]
    if result.recoveries != result.crashes:
        problems.append(f"seed {result.seed}: {result.crashes} crashes but "
                        f"{result.recoveries} recoveries")
    return problems


def chaos_lossy(seed: int, tap: OutcomeTap) -> Outcome:
    """CHAOS_CAMPAIGNS ``run_chaos`` campaigns with seeds derived from ``seed``."""
    from repro.faults.chaos import run_chaos
    from repro.harness.metrics import MetricsCollector
    from repro.net.latency import LAN_PROFILE

    spec = chaos_spec()
    out = Outcome("chaos-lossy", seed)
    injected = {"fault_dropped": 0, "fault_duplicated": 0,
                "fault_corrupted": 0, "retransmissions": 0}
    for part in range(CHAOS_CAMPAIGNS):
        campaign_seed = seed * CHAOS_CAMPAIGNS + part
        start = time.perf_counter()
        tap.reset(MetricsCollector(warmup_ms=spec.warmup_ms,
                                   reply_one_way_ms=LAN_PROFILE.one_way_ms))
        result = run_chaos(spec, campaign_seed)
        out.wall_s += time.perf_counter() - start
        out.setup_s.append(tap.first_run_at - start)
        out.setup_probe_s.append(tap.setup_probe_s)
        out.problems += chaos_check(result)

        deadline = spec.duration_ms - CHAOS_TAIL_MS
        counted = [key for at, key in tap.offered if at <= deadline]
        committed = sum(1 for key in counted if key in tap.replied)
        out.attempted += len(counted)
        out.committed += committed
        out.failed += len(counted) - committed
        out.refused += tap.refused
        out.blocks_committed += len(tap.committed_blocks)
        out.blocks_proposed += len(tap.proposed)
        out.e2e_ms += tap.collector.e2e_latency.samples
        out.sim_s += spec.duration_ms / 1000.0
        out.parts.append(Part(spec.duration_ms / 1000.0, committed,
                              tap.take_slices()))
        for name in injected:
            injected[name] += result.extras.get(name, 0)
        part_counts = _network_counts(c.network for c in tap.clusters)
        part_counts["events"] = result.sim_events
        part_counts["window_txs"] = tap.collector.txs_committed
        part_counts["window_blocks"] = tap.collector.blocks_committed
        part_counts["window_ms"] = spec.duration_ms - spec.warmup_ms
        _add_counts(out.counts, part_counts)
        out.digest_parts.append([result.digest, len(counted), committed,
                                 latency_summary(tap.collector.e2e_latency.samples)])
    for name, count in injected.items():
        if count == 0:
            out.problems.append(f"engagement: no {name} in any campaign")
    return out


# ----------------------------------------------------------------------
# shard-2pc
# ----------------------------------------------------------------------
class RetryingTxns:
    """Client side of cross-shard transactions over a ``TxnManager``.

    A 2PC transaction that aborts (hot keys make prepares conflict) is
    retried with linear backoff, as a client would; each abort is wasted
    work the per-layer ``shard.txn_abort_ratio`` shows.
    """

    def __init__(self, sim, txns) -> None:
        self.sim = sim
        self.txns = txns
        self.begun = 0
        self.committed = 0
        self.gave_up = 0
        self.latencies: list = []

    def begin(self, writes) -> None:
        self.begun += 1
        self._attempt(writes, 1, self.sim.now)

    def _attempt(self, writes, attempt: int, started: float) -> None:
        def done(outcome):
            if outcome == "committed":
                self.committed += 1
                self.latencies.append(self.sim.now - started)
            elif attempt < TXN_ATTEMPTS:
                self.sim.schedule(TXN_BACKOFF_MS * attempt,
                                  lambda: self._attempt(writes, attempt + 1,
                                                        started),
                                  label="bench.txn-retry")
            else:
                self.gave_up += 1
        self.txns.begin(writes, on_done=done)


def shard_2pc(seed: int, tap: OutcomeTap) -> Outcome:
    """S=4 MinBFT shards under ShardTrafficGenerator traffic, quiesced."""
    from repro.shard.deployment import ShardedDeployment
    from repro.workload.shard import ShardTrafficGenerator
    from repro.workload.spec import WorkloadSpec

    out = Outcome("shard-2pc", seed)
    start = time.perf_counter()
    tap.reset(None)
    deployment = ShardedDeployment(protocol="minbft", shards=SHARDS, f=1,
                                   seed=seed, warmup_ms=SHARD_WARMUP_MS)
    txns = RetryingTxns(deployment.sim, deployment.txns)
    generator = ShardTrafficGenerator(
        deployment.sim, deployment.router, txns=txns,
        spec=WorkloadSpec(base_rate_tps=SHARD_RATE_TPS, arrival="lognormal"),
        cross_fraction=SHARD_CROSS)
    generator.start()
    deployment.start()
    deployment.run(SHARD_LOAD_MS)
    generator.stop_cross()
    deployment.mark_quiesced()
    deployment.run(SHARD_SETTLE_MS)
    generator.stop()
    deployment.run(SHARD_DRAIN_MS)
    try:
        deployment.assert_ok()
    except AssertionError as exc:
        out.problems.append(f"assert_ok: {exc}")
    out.wall_s = time.perf_counter() - start
    out.setup_s.append(tap.first_run_at - start)
    out.setup_probe_s.append(tap.setup_probe_s)

    router = deployment.router
    outstanding = sum(router.queue_depth)
    unresolved = txns.begun - txns.committed - txns.gave_up
    out.sim_s = (SHARD_LOAD_MS + SHARD_SETTLE_MS + SHARD_DRAIN_MS) / 1000.0
    out.attempted = generator.writes_issued + txns.begun
    out.refused = router.failures
    out.failed = router.failures + outstanding + txns.gave_up + unresolved
    out.committed = out.attempted - out.failed
    out.parts.append(Part(out.sim_s, out.committed, tap.take_slices()))
    out.blocks_committed = len(tap.committed_blocks)
    out.blocks_proposed = len(tap.proposed)
    out.e2e_ms = deployment.aggregate_e2e_latency().samples
    out.txn_ms = txns.latencies
    summary = deployment.summary()
    out.counts = _network_counts(c.network for c in deployment.clusters)
    out.counts["events"] = deployment.sim.events_processed
    out.counts["window_txs"] = summary["txs_committed"]
    out.counts["window_blocks"] = summary["blocks_committed"]
    out.counts["window_ms"] = out.sim_s * 1000.0 - SHARD_WARMUP_MS
    out.counts["txn_attempts"] = deployment.txns.committed + deployment.txns.aborted
    out.counts["txn_aborts"] = deployment.txns.aborted
    out.counts["router_retries"] = router.retransmissions
    out.digest_parts = [
        [_tips(c.nodes) for c in deployment.clusters],
        generator.writes_issued, txns.begun, txns.committed,
        deployment.txns.committed, deployment.txns.aborted,
        router.completed, router.failures, router.retransmissions,
        deployment.sim.events_processed, latency_summary(out.e2e_ms),
        latency_summary(out.txn_ms),
    ]
    return out


WORKLOADS: dict[str, Callable[[int, OutcomeTap], Outcome]] = {
    "fig3-saturated": fig3_saturated,
    "chaos-lossy": chaos_lossy,
    "shard-2pc": shard_2pc,
}

#: Workloads whose runs must observe mempool admissions (operations are
#: counted at the mempool, not at a generator the benchmark holds).
OBSERVES_OFFERS = {"chaos-lossy"}

__all__ = ["Outcome", "OutcomeTap", "Part", "ReferenceProbe", "WORKLOADS",
           "OBSERVES_OFFERS", "latency_summary", "chaos_check"]
