"""Wall-time layer ledger: a timing shim over the program's public entry points.

The shim lives entirely in the benchmark.  It replaces each entry point in
:data:`ENTRY_POINTS` with a timing wrapper at every binding site -- the
defining class (and every subclass that overrides the method) or, for a
module-level function, every ``repro`` module that imported it by name --
and puts every original back on :meth:`LayerShim.restore`.

Self time uses a layer stack: a wrapper's elapsed time minus the time its
wrapped callees took.  Nothing is counted twice, so the layers' self times
plus the residual (time under no wrapper) add up to the traced wall time.
Every call is also aggregated per (caller layer -> callee layer) edge.

Install the shim *before* building a deployment: hot paths keep bound
methods created at construction time (``Network._deliver_ref``, pacemaker
timers), and those would keep calling the unwrapped originals.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Optional

#: Layer -> entry points, as ``"module:Qualified.name"``.  ``ecall`` stands
#: for every ``@ecall``-decorated method of every ``Enclave`` subclass.
#: Two private methods are timed as well, because their work would otherwise
#: land in the event loop's self time:
#: ``ReplicaBase._dispatch`` (``deliver`` only enqueues; handlers run from
#: the loop through ``_dispatch``) and ``Network._deliver`` (the receive
#: half of the fabric).  ``Network.broadcast`` is not timed: no caller in
#: the program uses it (replicas fan out through ``send``).
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "sim": (
        "repro.sim.loop:Simulator.run",
        "repro.sim.loop:Simulator.cancel",
        "repro.sim.events:EventQueue.push",
        "repro.sim.events:EventQueue.push_fast",
        "repro.sim.events:EventQueue.pop_due",
    ),
    "net": (
        "repro.net.network:Network.send",
        "repro.net.network:Network.transmit",
        "repro.net.network:Network._deliver",
    ),
    "transport": (
        "repro.net.transport:ReliableChannel.stamp",
        "repro.net.transport:ReliableChannel.receive",
    ),
    "crypto": (
        "repro.crypto.hashing:digest_of",
        "repro.crypto.signatures:sign",
        "repro.crypto.signatures:verify",
        "repro.crypto.signatures:SignatureList.verify_all",
        "repro.crypto.signatures:verify_distinct",
    ),
    "tee": (
        "ecall",
        "repro.tee.counters:PersistentCounter.increment",
        "repro.tee.sealing:seal",
        "repro.tee.sealing:unseal",
    ),
    "chain": (
        "repro.chain.execution:execute_transactions",
        "repro.chain.execution:KVStateMachine.apply_batch",
        "repro.chain.store:BlockStore.add",
        "repro.chain.store:BlockStore.commit",
    ),
    "storage": (
        "repro.storage.journal:WriteAheadJournal.write",
        "repro.storage.journal:WriteAheadJournal.fsync",
        "repro.storage.journal:WriteAheadJournal.commit",
        "repro.storage.journal:WriteAheadJournal.log_atomic",
    ),
    "client": (
        "repro.client.workload:SaturatedSource.take",
        "repro.client.workload:QueueSource.submit",
        "repro.client.workload:QueueSource.take",
        "repro.client.workload:OpenLoopGenerator._emit",
        "repro.workload.shard:ShardTrafficGenerator._emit",
        "repro.workload.generators:ArrivalEngine.next_gap_ms",
    ),
    "consensus": (
        "repro.consensus.base:ReplicaBase.deliver",
        "repro.consensus.base:ReplicaBase._dispatch",
        "repro.consensus.base:ReplicaBase.commit_block",
        "repro.consensus.pacemaker:Pacemaker._fire",
    ),
    "shard": (
        "repro.shard.router:Router.submit_write",
        "repro.shard.router:Router.submit_payload",
        "repro.shard.router:Router.deliver",
        "repro.shard.txn:TxnManager.begin",
        "repro.shard.machine:ShardStateMachine.apply_batch",
    ),
    "harness": (
        "repro.harness.invariants:InvariantMonitor.on_commit",
        "repro.harness.invariants:InvariantMonitor.on_replies",
        "repro.harness.invariants:InvariantMonitor.poll",
        "repro.harness.metrics:MetricsCollector.on_commit",
        "repro.harness.metrics:MetricsCollector.on_replies",
    ),
}

LAYERS = tuple(ENTRY_POINTS)

#: Key of the pseudo-layer that stands for "no wrapper on the stack".
ROOT = "-"

_MARK = "__simbench_entry__"


def import_all() -> None:
    """Import every ``repro`` module so every binding site exists.

    Lazily imported modules would otherwise bind a name after the shim
    looked for it.  ``repro.__main__`` is skipped: importing it runs the CLI.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _subclasses(cls: type) -> list[type]:
    seen: list[type] = []
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class EntryStats:
    """Calls and self seconds of one entry point."""

    __slots__ = ("layer", "calls", "self_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0


class LayerShim:
    """Wraps the entry points, accumulates self time, restores originals."""

    def __init__(self, entry_points: Optional[dict] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 packages: tuple[str, ...] = ("repro",)) -> None:
        self.entry_points = entry_points if entry_points is not None \
            else ENTRY_POINTS
        self.clock = clock
        #: modules under these packages are searched for binding sites
        self.packages = packages
        self.entries: dict[str, EntryStats] = {}
        #: (caller layer, callee layer) -> [calls, total seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self) -> "LayerShim":
        """Wrap every entry point at every binding site."""
        if self._undo:
            raise RuntimeError("shim already installed")
        import_all()
        modules = [m for name, m in sorted(sys.modules.items())
                   if any(name == p or name.startswith(p + ".")
                          for p in self.packages)]
        try:
            for layer, targets in self.entry_points.items():
                for target in targets:
                    if target == "ecall":
                        self._wrap_ecalls(layer)
                    else:
                        self._wrap_target(layer, target, modules)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original back, newest replacement first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerShim":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, owner: object, name: str, new: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_target(self, layer: str, target: str, modules: list) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            wrapper = self._wrapper(layer, qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
            return
        cls_name, _, method = qualname.partition(".")
        cls = getattr(module, cls_name)
        for owner in [cls] + _subclasses(cls):
            value = owner.__dict__.get(method)
            if value is None or getattr(value, _MARK, None) is not None:
                continue
            if owner is not cls and self._listed(owner, method):
                continue
            self._replace(owner, method, self._wrapper(
                layer, f"{owner.__name__}.{method}", value))

    def _listed(self, owner: type, method: str) -> bool:
        name = f"{owner.__module__}:{owner.__name__}.{method}"
        return any(name in targets for targets in self.entry_points.values())

    def _wrap_ecalls(self, layer: str) -> None:
        from repro.tee.enclave import Enclave, ecall

        ecall_code = ecall(lambda self: None).__code__
        for owner in [Enclave] + _subclasses(Enclave):
            for name, value in list(vars(owner).items()):
                if getattr(value, "__code__", None) is ecall_code:
                    self._replace(owner, name, self._wrapper(
                        layer, f"ecall:{owner.__name__}.{name}", value))

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------
    def _wrapper(self, layer: str, entry: str, fn: Callable) -> Callable:
        stats = self.entries.get(entry)
        if stats is None:
            stats = self.entries[entry] = EntryStats(layer)
        stack = self._stack
        edges = self.edges
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[1] += elapsed
                key = (caller[0] if caller is not None else ROOT, layer)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed

        setattr(timed, _MARK, entry)
        return timed

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def calls(self, entry: str) -> int:
        """Calls of one entry point (0 if it was never wrapped)."""
        stats = self.entries.get(entry)
        return stats.calls if stats is not None else 0

    def entry_self_s(self, *entries: str) -> float:
        """Self seconds summed over the named entry points."""
        return sum(self.entries[e].self_s for e in entries if e in self.entries)

    def layer_calls(self, layer: str, prefix: str = "") -> int:
        """Calls summed over a layer's entry points (optionally by prefix)."""
        return sum(s.calls for e, s in self.entries.items()
                   if s.layer == layer and e.startswith(prefix))

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer."""
        out = {layer: 0.0 for layer in self.entry_points}
        for stats in self.entries.values():
            out[stats.layer] += stats.self_s
        return out


__all__ = ["ENTRY_POINTS", "LAYERS", "LayerShim", "import_all", "ROOT"]
