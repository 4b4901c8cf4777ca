"""Tests of the benchmark itself: the layer shim, the anti-vacuity checks
and negative controls showing the correctness check can fail.

Run from the repository root::

    python3 -m pytest simbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gc  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from layers import ROOT, LayerShim  # noqa: E402

DEFAULT_GC_THRESHOLD = gc.get_threshold()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def toy():
    """Two modules; the second imports ``leaf`` from the first by name."""
    clock = FakeClock()
    a = types.ModuleType("simbench_toy_a")
    b = types.ModuleType("simbench_toy_b")

    def leaf():
        clock.now += 1

    def inner():
        clock.now += 2
        a.leaf()

    class Outer:
        def go(self):
            clock.now += 3
            inner_ref = a.inner
            inner_ref()

    a.leaf, a.inner, a.Outer = leaf, inner, Outer
    b.leaf = leaf
    sys.modules[a.__name__] = a
    sys.modules[b.__name__] = b
    entry_points = {"outer": ("simbench_toy_a:Outer.go",),
                    "mid": ("simbench_toy_a:inner",),
                    "leaf": ("simbench_toy_a:leaf",)}
    shim = LayerShim(entry_points, clock=clock,
                     packages=("simbench_toy_a", "simbench_toy_b"))
    yield shim, a, b, clock
    shim.restore()
    del sys.modules[a.__name__], sys.modules[b.__name__]


class TestShim:
    def test_self_time_partitions_the_wall_time(self, toy):
        shim, a, b, clock = toy
        with shim:
            a.Outer().go()
            b.leaf()
        assert shim.layer_self_s() == {"outer": 3, "mid": 2, "leaf": 2}
        assert sum(shim.layer_self_s().values()) == clock.now
        assert shim.calls("leaf") == 2
        assert shim.edges == {(ROOT, "outer"): [1, 6], ("outer", "mid"): [1, 3],
                              ("mid", "leaf"): [1, 1], (ROOT, "leaf"): [1, 1]}

    def test_every_binding_site_is_wrapped_and_restored(self, toy):
        shim, a, b, _ = toy
        originals = (a.leaf, a.inner, a.Outer.__dict__["go"])
        with shim:
            assert a.leaf is not originals[0] and b.leaf is a.leaf
            assert a.inner is not originals[1]
            assert a.Outer.__dict__["go"] is not originals[2]
        assert (a.leaf, a.inner, a.Outer.__dict__["go"]) == originals
        assert b.leaf is originals[0]

    def test_program_entry_points_are_wrapped_and_restored(self):
        import repro.chain.block as block
        import repro.crypto.hashing as hashing
        from repro.core.checker import AchillesChecker
        from repro.net.network import Network

        before = (hashing.digest_of, block.digest_of,
                  Network.__dict__["transmit"],
                  AchillesChecker.__dict__["tee_prepare"])
        with LayerShim() as shim:
            assert hashing.digest_of is not before[0]
            assert block.digest_of is hashing.digest_of
            assert Network.__dict__["transmit"] is not before[2]
            assert AchillesChecker.__dict__["tee_prepare"] is not before[3]
            assert "ecall:AchillesChecker.tee_prepare" in shim.entries
        after = (hashing.digest_of, block.digest_of,
                 Network.__dict__["transmit"],
                 AchillesChecker.__dict__["tee_prepare"])
        assert after == before


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_traced_run_is_not_vacuous(workload):
    """Every entry point fires where the table says; transport and shard
    stay idle on fig3-saturated; traced and untraced digests agree."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "CHECK FAILED" not in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = result["metrics"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    # The benchmark's own bookkeeping is its own layer, not the program's.
    assert metrics["bench.self_s"]["value"] > 0
    assert result["correct"] and result["failed"] == 0
    shares = [m["value"] for name, m in metrics.items()
              if name.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)


def test_slicing_leaves_the_simulation_unchanged():
    from repro.faults.chaos import run_chaos

    spec = W.chaos_spec()
    plain = run_chaos(spec, 3)
    tap = W.OutcomeTap().patch(observe_offers=True)
    try:
        tap.reset(None)
        sliced = run_chaos(spec, 3)
        assert len(tap.take_slices()) > 1
    finally:
        tap.unpatch()
    assert sliced.digest == plain.digest


def test_part_seconds_takes_each_slice_at_its_best():
    def rep(*slices):
        return W.Outcome("fig3-saturated", 0,
                         parts=[W.Part(1.0, 10, list(slices))])

    [(raw, scaled)] = run.part_seconds([rep((1.0, 0.5), (2.0, 1.0)),
                                        rep((0.8, 0.5), (3.0, 0.5))])
    assert raw == pytest.approx(0.9 + 2.5)
    assert scaled == pytest.approx(run.REFERENCE_PROBE_S * (1.8 + 4.0))


def test_setup_seconds_scales_the_median_import_and_build():
    rep = W.Outcome("fig3-saturated", 0, setup_s=[0.1, 0.3, 0.2],
                    setup_probe_s=[0.01, 0.01, 0.02])
    imports = [(0.2, 0.1), (0.4, 0.1), (0.9, 0.3)]
    assert run.setup_seconds([rep], imports) == pytest.approx(
        run.REFERENCE_IMPORT_S * 3.0 + run.REFERENCE_PROBE_S * 10.0)


def test_fresh_import_is_timed_in_another_interpreter():
    assert 0 < run.import_seconds(["repro.sim.loop"]) < 60


def test_default_seconds_match_the_benchmark():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.RUN_SECONDS == declared["run_seconds"]


def test_probe_runs_with_the_collector_off_and_restores_it():
    probe = W.ReferenceProbe()
    calls = []
    gc.callbacks.append(lambda phase, info: calls.append(phase))
    try:
        gc.set_threshold(1)  # any collection the probe allowed would run
        assert probe() > 0 and gc.isenabled() and not calls
        gc.disable()
        assert probe() > 0 and not gc.isenabled()
    finally:
        gc.enable()
        gc.set_threshold(*DEFAULT_GC_THRESHOLD)
        gc.callbacks.pop()


class TestNegativeControls:
    def outcome(self, digest_tag, problems=()):
        out = W.Outcome("chaos-lossy", 0, attempted=10, committed=10,
                        problems=list(problems))
        out.digest_parts = [digest_tag]
        return out

    def test_matching_runs_pass(self):
        reps = [self.outcome("x"), self.outcome("x")]
        correct, attempted, failed, _ = run.verdict(
            reps, [r.sim_digest for r in reps])
        assert (correct, attempted, failed) == (True, 20, 0)

    def test_mismatched_digest_fails_every_operation(self):
        reps = [self.outcome("x"), self.outcome("y")]
        correct, attempted, failed, problems = run.verdict(
            reps, [r.sim_digest for r in reps])
        assert not correct and failed == attempted == 20
        assert "sim_digest differs" in problems[0]

    def test_program_check_failure_fails_every_operation(self):
        """A real campaign that trips an invariant: a replica that trusts
        its sealed snapshot vault is fed a stale one."""
        from repro.faults.chaos import ChaosSpec, run_chaos

        spec = ChaosSpec(protocol="achilles", f=1, duration_ms=2500.0,
                         quiesce_ms=1000.0, crashes=0, rollbacks=0,
                         partitions=0, snapshot_interval=5, snapshot_retain=12,
                         byz=("stale-snapshot",), snapshot_trust_sealed=True)
        problems = W.chaos_check(run_chaos(spec, 0))
        assert any("sealed-state-freshness" in p for p in problems)
        reps = [self.outcome("x", problems), self.outcome("x")]
        correct, attempted, failed, _ = run.verdict(
            reps, [r.sim_digest for r in reps])
        assert not correct and failed == attempted == 20
