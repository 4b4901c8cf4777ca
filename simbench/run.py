"""Simulator benchmark: wall seconds per simulated second, per workload.

Run one workload for one seed::

    python3 simbench/run.py --workload fig3-saturated --seed 0 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and exits non-zero if any check failed.

``--trace 0`` repeats the workload's fixed unit of simulated work until
``--seconds`` of wall time have passed, and reports the end-to-end metrics
(see ``part_seconds`` and ``setup_seconds``).  ``--trace 1`` runs the unit
once untraced and once under the layer-timing shim and reports the
per-layer split.  Both
print the model's simulated outcomes and ``sim_digest``, check them, and end
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  A
failed correctness check exits 1; ``--out FILE`` appends the full record
(machine stamp, digests, every metric) as one JSON line for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds one run measures when ``--seconds`` is not given: BENCHMARK.json's
#: ``run_seconds``.
RUN_SECONDS = 40

#: Fresh-interpreter imports of the program timed per run, each paired with
#: an import of REFERENCE_IMPORTS; set-up time takes the median ratio.
IMPORTS = 7

#: Standard-library modules whose fresh import is the yardstick for the
#: program's: the same kind of work (reading and running module code in a
#: new process), slowed the same way by a loaded machine, and out of the
#: program's reach.
REFERENCE_IMPORTS = (
    "argparse", "asyncio", "csv", "dataclasses", "decimal",
    "email.mime.multipart", "fractions", "http.client", "json",
    "logging.handlers", "statistics", "unittest", "urllib.request",
    "xml.dom.minidom",
)

#: Seconds the import of REFERENCE_IMPORTS takes on the machine set-up time
#: is expressed for: a round figure for it on the machine of
#: REFERENCE_PROBE_S when lightly loaded.
REFERENCE_IMPORT_S = 0.09

#: Run in a fresh interpreter: import the named modules and print the
#: seconds it took.  argv: the program's source directory, then the modules.
IMPORT_CODE = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""

#: Seconds the reference probe takes on the machine the wall-time metrics
#: are expressed for (see ``workloads.ReferenceProbe``): a round figure near
#: its median on the 2-vCPU Intel Xeon VM, Python 3.11, the benchmark was
#: built on.
REFERENCE_PROBE_S = 0.005

WORKLOADS = ("fig3-saturated", "chaos-lossy", "shard-2pc")

#: Wrapped entry points and the workloads each must fire on (anti-vacuity).
#: "ecall:" covers every @ecall method.  Entries not listed need not fire:
#: no workload deploys a persistent counter (MinBFT's USIG seals its state
#: through the journal instead), so ``PersistentCounter.increment`` and
#: ``WriteAheadJournal.log_atomic`` stay idle on all three, and so does
#: ``unseal`` (no workload reboots a sealing enclave).  ``Pacemaker._fire``
#: (a view timeout) need not fire either: on chaos-lossy a view times out
#: in about 8% of campaigns (see ``workloads.CHAOS_CAMPAIGNS``).
EXPECTED_CALLS: dict[str, tuple[str, ...]] = {
    "Simulator.run": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "Simulator.cancel": ("chaos-lossy", "shard-2pc"),
    "EventQueue.push": ("chaos-lossy", "shard-2pc"),
    "EventQueue.push_fast": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "EventQueue.pop_due": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "Network.send": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "Network.transmit": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "Network._deliver": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "ReliableChannel.stamp": ("chaos-lossy",),
    "ReliableChannel.receive": ("chaos-lossy",),
    "digest_of": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "sign": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "verify": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "ecall:": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "seal": ("shard-2pc",),
    "execute_transactions": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "KVStateMachine.apply_batch": ("shard-2pc",),
    "BlockStore.add": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "BlockStore.commit": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "SaturatedSource.take": ("fig3-saturated",),
    "QueueSource.submit": ("chaos-lossy", "shard-2pc"),
    "QueueSource.take": ("chaos-lossy", "shard-2pc"),
    "OpenLoopGenerator._emit": ("chaos-lossy",),
    "ShardTrafficGenerator._emit": ("shard-2pc",),
    "ArrivalEngine.next_gap_ms": ("shard-2pc",),
    "ReplicaBase.deliver": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "ReplicaBase._dispatch": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "ReplicaBase.commit_block": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "Router.submit_write": ("shard-2pc",),
    "Router.submit_payload": ("shard-2pc",),
    "Router.deliver": ("shard-2pc",),
    "TxnManager.begin": ("shard-2pc",),
    "ShardStateMachine.apply_batch": ("shard-2pc",),
    "InvariantMonitor.on_commit": ("chaos-lossy", "shard-2pc"),
    "InvariantMonitor.on_replies": ("chaos-lossy", "shard-2pc"),
    "InvariantMonitor.poll": ("chaos-lossy", "shard-2pc"),
    "MetricsCollector.on_commit": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
    "MetricsCollector.on_replies": ("fig3-saturated", "chaos-lossy", "shard-2pc"),
}

#: Layers that must not run at all on a workload.
ZERO_LAYERS: dict[str, tuple[str, ...]] = {
    "fig3-saturated": ("transport", "shard"),
    "chaos-lossy": ("shard",),
}

#: The benchmark's own bookkeeping, timed as a layer of its own in the
#: traced run so that it is not booked to the program's layers.
BENCH_ENTRY_POINTS = {"bench": (
    "workloads:OutcomeTap.on_propose",
    "workloads:OutcomeTap.on_commit",
    "workloads:OutcomeTap.on_replies",
    "workloads:OutcomeTap.offer",
)}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spread(values) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def machine_stamp() -> dict:
    """Where and from what this result was measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu": cpu, "git_rev": rev,
            "git_dirty": dirty}


def simulated_metrics(outcome, latency_summary) -> dict:
    """The model's simulated outcomes: deterministic per seed."""
    count, p50, p99 = latency_summary(outcome.e2e_ms)
    txn_count, _, txn_p99 = latency_summary(outcome.txn_ms)
    counts = outcome.counts
    return {
        "sim_tput_ktps": (counts["window_txs"] / counts["window_ms"], "ktps"),
        "sim_e2e_p50_ms": (p50, "ms"),
        "sim_e2e_p99_ms": (p99, "ms"),
        "sim_e2e_samples": (count, "count"),
        "sim_txn_p99_ms": (txn_p99, "ms"),
        "sim_txn_samples": (txn_count, "count"),
    }


def part_seconds(reps) -> list[tuple[float, float]]:
    """(raw, scaled) wall seconds of each part of the unit.

    Raw sums each slice's median wall time over the repeats.
    Scaled sums each slice's median ratio of wall time to the probe timed
    right after it, times REFERENCE_PROBE_S: the slice's wall time on a
    machine where the probe takes that long.  A ratio pairs a slice with
    the load it ran under, and the median drops a burst of load that hit
    either the slice or its probe.
    """
    out = []
    for parts in zip(*(rep.parts for rep in reps)):
        slices = list(zip(*(part.slices for part in parts)))
        raw = sum(median([wall for wall, _ in pairs]) for pairs in slices)
        scaled = sum(median([wall / probe for wall, probe in pairs])
                     for pairs in slices)
        out.append((raw, REFERENCE_PROBE_S * scaled))
    return out


def setup_seconds(reps, imports) -> float:
    """Set-up time on the reference machine: the median fresh import of the
    program over the reference import timed after it, plus the median time
    from a part's start to its first simulated event over the probe timed
    after it."""
    loads = [wall / reference for wall, reference in imports]
    builds = [wall / probe for rep in reps
              for wall, probe in zip(rep.setup_s, rep.setup_probe_s)]
    return (REFERENCE_IMPORT_S * median(loads)
            + REFERENCE_PROBE_S * median(builds))


def end_to_end(run) -> dict:
    """Host-side metrics over the untraced repeats, pooled over the parts
    of the unit: a chaos-lossy seed's eight campaigns each draw their own
    load, and their totals vary less from seed to seed than any one does."""
    parts = run.reps[0].parts
    scaled = sum(scaled for _, scaled in part_seconds(run.reps))
    return {
        "wall_s_per_sim_s": (scaled / sum(part.sim_s for part in parts),
                             "s/s"),
        "commits_per_wall_s": (sum(part.committed for part in parts) / scaled,
                               "tx/s"),
        "setup_s": (setup_seconds(run.reps, run.imports), "s"),
        "peak_rss_mb": (run.rss_mib, "MiB"),
    }


def per_layer(shim, traced, untraced) -> dict:
    """The traced unit's per-layer split and counts."""
    counts = traced.counts
    commits = max(traced.committed, 1)
    calls = shim.calls
    wall = traced.wall_s
    self_s = shim.layer_self_s()
    frames = calls("ReliableChannel.stamp")
    monitor = ("InvariantMonitor.on_commit", "InvariantMonitor.on_replies",
               "InvariantMonitor.poll")
    collector = ("MetricsCollector.on_commit", "MetricsCollector.on_replies")
    attempts = counts.get("txn_attempts", 0)
    records = (calls("WriteAheadJournal.write")
               + calls("WriteAheadJournal.log_atomic"))
    out = {
        "sim.events": (counts["events"], "count"),
        "sim.events_per_commit": (counts["events"] / commits, "1/tx"),
        "sim.cancels": (calls("Simulator.cancel"), "count"),
        "net.transmits": (calls("Network.transmit"), "count"),
        "net.msgs_per_commit": (counts["messages"] / commits, "1/tx"),
        "net.bytes_per_commit": (counts["bytes"] / commits, "B/tx"),
        "transport.frames": (frames, "count"),
        "transport.retransmits": (counts["retransmits"], "count"),
        "transport.goodput": (counts["delivered_unique"] / counts["messages"]
                              if frames else 0.0, "ratio"),
        "crypto.digest_calls": (calls("digest_of"), "count"),
        "crypto.sign_calls": (calls("sign"), "count"),
        "crypto.verify_calls": (calls("verify") + calls("SignatureList.verify_all")
                                + calls("verify_distinct"), "count"),
        "crypto.digest_s": (shim.entry_self_s("digest_of"), "s"),
        "tee.ecalls": (shim.layer_calls("tee", "ecall:"), "count"),
        "tee.counter_writes": (calls("PersistentCounter.increment"), "count"),
        "tee.seals": (calls("seal"), "count"),
        "chain.exec_calls": (calls("execute_transactions")
                             + calls("KVStateMachine.apply_batch"), "count"),
        "chain.txs_per_block": (counts["window_txs"]
                                / max(counts["window_blocks"], 1), "tx/block"),
        "chain.exec_s": (shim.entry_self_s("execute_transactions",
                                           "KVStateMachine.apply_batch"), "s"),
        "chain.store_s": (shim.entry_self_s("BlockStore.add",
                                            "BlockStore.commit"), "s"),
        "storage.records": (records, "count"),
        "storage.records_per_commit": (records / commits, "1/tx"),
        "client.txs_offered": (traced.attempted, "count"),
        "client.drops": (traced.refused, "count"),
        "consensus.handler_calls": (calls("ReplicaBase._dispatch"), "count"),
        "consensus.view_changes": (calls("Pacemaker._fire"), "count"),
        "consensus.commit_ratio": (traced.blocks_committed
                                   / max(traced.blocks_proposed, 1), "ratio"),
        "shard.ops": (calls("Router.submit_payload"), "count"),
        "shard.txn_abort_ratio": (counts.get("txn_aborts", 0) / attempts
                                  if attempts else 0.0, "ratio"),
        "shard.router_retries": (counts.get("router_retries", 0), "count"),
        "harness.monitor_calls": (sum(calls(e) for e in monitor), "count"),
        "harness.monitor_s": (shim.entry_self_s(*monitor), "s"),
        "harness.collector_s": (shim.entry_self_s(*collector), "s"),
    }
    for layer in self_s:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
    residual = wall - sum(self_s.values())
    out["residual.self_s"] = (residual, "s")
    out["residual.share"] = (residual / wall, "ratio")
    out["trace.overhead"] = (wall / untraced.wall_s, "ratio")
    return out


def vacuity_problems(shim, workload: str) -> list:
    """Entry points that should have fired and did not, and layers that
    should be idle and were not."""
    problems = []
    for entry, workloads in EXPECTED_CALLS.items():
        if workload not in workloads:
            continue
        fired = sum(s.calls for name, s in shim.entries.items()
                    if name == entry or (entry.endswith(":")
                                         and name.startswith(entry)))
        if fired == 0:
            problems.append(f"anti-vacuity: {entry} never fired on {workload}")
    for layer in ZERO_LAYERS.get(workload, ()):
        fired = shim.layer_calls(layer)
        if fired:
            problems.append(f"anti-vacuity: layer {layer} fired {fired} "
                            f"calls on {workload}, predicted 0")
    return problems


def verdict(reps, digests) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, problems) over every unit run.

    Correct means every unit passed the program's checks and every unit of
    the seed produced the same ``sim_digest``.  An operation fails when the
    unit failed it, or when the run's correctness check failed.
    """
    problems = [p for rep in reps for p in rep.problems]
    if len({tuple(len(part.slices) for part in rep.parts)
            for rep in reps}) > 1:
        problems.append("repeats of one seed ran different slice counts")
    if len(set(digests)) > 1:
        problems.append(f"sim_digest differs between runs of one seed: "
                        f"{sorted(set(digests))}")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = not problems
    return correct, attempted, attempted if not correct else failed, problems


def import_seconds(modules: list) -> float:
    """Wall seconds a fresh interpreter takes to import ``modules``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src"), *modules],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


@dataclass
class Run:
    """Everything one run measured."""

    #: the untraced units, in the order they ran
    reps: list
    rss_mib: float
    #: (program, reference) seconds of each pair of fresh imports
    imports: list = field(default_factory=list)
    traced: object = None
    shim: object = None


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            started: float) -> Run:
    """Run the workload's unit: either repeatedly, under the probe, until
    ``seconds`` after ``started``, or once untraced and once traced."""
    import workloads as W
    from layers import ENTRY_POINTS, LayerShim

    run_unit = W.WORKLOADS[workload]
    tap = W.OutcomeTap()

    def patch() -> None:
        tap.patch(observe_offers=workload in W.OBSERVES_OFFERS)

    patch()
    try:
        if trace:
            run = Run(reps=[run_unit(seed, tap)], rss_mib=max_rss_mib())
            # The tap hooks the shim's wrappers, not the other way round, so
            # its bookkeeping is timed as the "bench" layer.
            tap.unpatch()
            run.shim = LayerShim({**ENTRY_POINTS, **BENCH_ENTRY_POINTS})
            run.shim.install()
            try:
                patch()
                run.traced = run_unit(seed, tap)
            finally:
                tap.unpatch()
                run.shim.restore()
            return run
        tap.probe = W.ReferenceProbe()
        run = Run(reps=[run_unit(seed, tap)], rss_mib=max_rss_mib())
        modules = [name for name in sys.modules
                   if name == "repro" or name.startswith("repro.")]
        for _ in range(IMPORTS):
            run.imports.append((import_seconds(modules),
                                import_seconds(list(REFERENCE_IMPORTS))))
        # Repeats, while another unit fits in the measuring time, so a run
        # takes about ``seconds`` however long one unit is.
        deadline = started + seconds
        while time.perf_counter() + run.reps[-1].wall_s <= deadline:
            rep = run_unit(seed, tap)
            rep.e2e_ms = rep.txn_ms = []  # only the first unit's are read
            run.reps.append(rep)
        return run
    finally:
        tap.unpatch()


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSONL file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--out", args.out]
                                               if args.out else [])
        return max(subprocess.run([sys.executable, __file__, "--workload", w]
                                  + rest).returncode for w in WORKLOADS)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as W

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  started)
    reps, traced, shim = run.reps, run.traced, run.shim
    units = reps + ([traced] if traced is not None else [])
    digests = [u.sim_digest for u in units]
    correct, attempted, failed, problems = verdict(units, digests)
    if shim is not None:
        vacuous = vacuity_problems(shim, args.workload)
        problems += vacuous
        if vacuous:
            correct, failed = False, attempted

    simulated = simulated_metrics(reps[0], W.latency_summary)
    if args.trace:
        metrics = per_layer(shim, traced, reps[0])
        metrics.update(simulated)
    else:
        metrics = end_to_end(run)
    walls = [r.run_s for r in reps]
    stamp = machine_stamp()
    stamp.update({"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "repeats": len(reps),
                  "wall_spread": spread(walls),
                  "wall_min_s": min(walls), "wall_max_s": max(walls)})
    if not args.trace:
        stamp["probe_median_s"] = median([
            probe for rep in reps for part in rep.parts
            for _, probe in part.slices])
        stamp["reference_import_median_s"] = median([
            reference for _, reference in run.imports])
        stamp["unscaled_wall_s_per_sim_s"] = (
            sum(raw for raw, _ in part_seconds(reps))
            / sum(part.sim_s for part in reps[0].parts))
        stamp["unscaled_setup_s"] = (
            median([wall for wall, _ in run.imports])
            + median([wall for rep in reps for wall in rep.setup_s]))

    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(f"sim_digest: {digests[0]}  (units run: {len(units)})")
    for name, (value, unit) in {**metrics, **simulated}.items():
        print(f"  {name:28s} {_fmt(value):>14s} {unit}")
    print(f"  operations: attempted {attempted}, failed {failed}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if shim is not None:
        for (caller, callee), (n, total) in sorted(shim.edges.items()):
            print(f"  edge {caller:>9s} -> {callee:9s} {n:>9d} calls {total:10.4f} s")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        record = dict(result, stamp=stamp, sim_digest=digests[0],
                      simulated={k: v for k, (v, _) in simulated.items()},
                      problems=problems)
        with open(args.out, "a") as sink:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
