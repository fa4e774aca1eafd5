"""Tests of the benchmark's generators, checks, percentile helpers and tracer.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import time

import pytest

import run
import workloads as wl
from tracer import Tracer

fx = wl.fx

SMALL = {
    "lifecycle": lambda seed: wl.setup_lifecycle(seed, copies=2),
    "evidence-audit": lambda seed: wl.setup_evidence(seed, copies=3),
    "design-sweep": lambda seed: wl.setup_sweep(seed, ks=range(2, 4)),
}


def test_one_copy_reproduces_lifecycle_full_event_log(tmp_path):
    reference = fx.run_scenario(fx.load_scenario(wl.LIFECYCLE_FILE))
    fx.sim.write_event_log(reference, tmp_path / "events.jsonl")
    batch = wl.setup_lifecycle(None, copies=1)
    batch.worlds[0].run()
    assert wl.event_log_bytes(batch.worlds[0]) == (tmp_path / "events.jsonl").read_bytes()


def test_replicate_offsets_copies_and_keeps_copy_zero_names():
    base = fx.load_scenario(wl.LIFECYCLE_FILE)
    s = wl.lifecycle_scenario(3, seed=11)
    assert s.seed == 11
    assert len(s.workload) == 3 * len(base.workload)
    assert [a.tick for a in s.workload] == sorted(a.tick for a in s.workload)
    creates = [a for a in s.workload if a.action == "create-case"]
    assert [(a.tick, a.case) for a in creates] == [(1, "C-100"), (2, "C-100.1"), (3, "C-100.2")]
    assert sorted(v.case for v in s.votes) == ["C-100", "C-100.1", "C-100.2"]


def test_evidence_generator_is_a_function_of_the_seed():
    first, tampered = wl.evidence_scenario(5, copies=8)
    again, tampered_again = wl.evidence_scenario(5, copies=8)
    assert first == again and tampered == tampered_again
    assert tampered != wl.evidence_scenario(6, copies=8)[1]
    accesses = [a for a in first.workload if a.action == "access" and a.case == "C-1"]
    assert len(accesses) == 2 * first.stage_count * 12
    assert len({a.payload for a in accesses}) == len(accesses)
    tamper_ticks = {f.tick for f in first.faults if f.kind == "tamper-offchain"}
    assert tamper_ticks and min(tamper_ticks) > max(a.tick for a in first.workload)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_batches_pass_every_check(workload):
    b = run.run_batch(SMALL[workload], 3)
    checks = wl.Checks()
    wl.check(b.batch, b.audit, checks)
    assert checks.attempted > 0 and checks.failures == []


def test_checks_count_a_verdict_that_misses_injected_tampering():
    b = run.run_batch(SMALL["evidence-audit"], 3)
    _blocked, verdict = b.batch.expectations[0].cases["C-1.2"]
    stage = next(s for s in range(5) if s not in verdict["A"])
    b.batch.worlds[0].stores["A"].tamper("C-1.2", stage, 11)
    checks = wl.Checks()
    wl.check(b.batch, wl.audit(b.batch.worlds), checks)
    assert len(checks.failures) == 1 and "C-1.2" in checks.failures[0]


def test_percentile_helpers():
    values = list(range(1, 41))
    assert run.percentile(values, 50) == 20
    assert run.percentile(values, 75) == 30
    assert run.percentile([7.0], 99) == 7.0
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(38) == 73
    assert run.tail_percentile(11) == 9
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_repeat_for_runs_once_at_zero_and_otherwise_until_time_is_up():
    calls = []
    assert run.repeat_for(lambda: calls.append(1) or len(calls), 0.0)[1] == 1
    mean, last = run.repeat_for(lambda: calls.append(time.sleep(0.01)) or len(calls), 0.05)
    assert last == len(calls) >= 4 and mean >= 0.01
    b = run.run_batch(SMALL["design-sweep"], 1, 0.05)
    assert len(b.audits) >= 2
    assert len(b.case_latencies()) == len(b.audit.unit_latencies) == 4


def _traced_pass(workload):
    tracer = Tracer(wl.ALL_LAYERS)
    tracer.install()
    try:
        b = run.run_batch(SMALL[workload], 4)
    finally:
        tracer.uninstall()
    worlds = b.batch.worlds
    counts = (
        sum(wl.committed_txs(w) for w in worlds),
        sum(len(w.events) for w in worlds),
        sum(len(w.reports) for w in worlds),
    )
    return dict(tracer.calls), counts, run.log_digest(b.batch)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_and_tracing_changes_no_event(workload):
    calls, counts, digest = _traced_pass(workload)
    assert _traced_pass(workload) == (calls, counts, digest)
    assert run.log_digest(run.run_batch(SMALL[workload], 4).batch) == digest
    assert all(calls[layer] > 0 for layer in wl.EXPECTED_LAYERS[workload])


def test_tracer_reaches_names_bound_at_import_and_restores_them():
    originals = (fx.chain.sign, fx.comm.verify, fx.crypto.KeyPair.__dict__["derive"])
    tracer = Tracer(["crypto.sign", "crypto.verify", "crypto.KeyPair.derive"])
    tracer.install()
    try:
        assert fx.chain.sign is fx.comm.sign is fx.crypto.sign is not originals[0]
        key = fx.KeyPair.derive("a", "b")
        fx.make_transaction(fx.PayloadKind.CASE_CREATE, b"x", "A", (), key)
    finally:
        tracer.uninstall()
    assert tracer.calls == {"crypto.sign": 1, "crypto.verify": 0, "crypto.KeyPair.derive": 1}
    assert (fx.chain.sign, fx.comm.verify, fx.crypto.KeyPair.__dict__["derive"]) == originals
