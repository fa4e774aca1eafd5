"""Benchmark of forensicross: case lifecycles, provenance audits and the
mesh-vs-bridge design sweep, timed on the host.

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run first checks that the workload generator reproduces
scenarios/lifecycle_full.yaml byte for byte. It then repeats batches of the
workload (set-up, World.run, audit, correctness checks) until `--seconds`
have passed and reports medians over the batches. With `--trace 0` it
reports the end-to-end metrics, measured with tracing off. With `--trace 1`
it alternates untraced and traced batches and reports per-layer calls and
self time. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. `--workload all` runs every
workload in its own child process, one after another, and combines them.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads as wl
from tracer import Tracer

fx = wl.fx
clock = time.perf_counter

# Seconds of calls in one set-up or audit sample, which reports the mean per
# call. Host speed can flip within a second, so a sample spanning several
# flips is steadier than one that catches a single flip; the run then
# reports the median of the samples.
SAMPLE_S = 0.5
TAIL_BEYOND = 10


def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile whose nearest-rank value has at least
    `beyond` of the n samples above it (p75 for 40 samples)."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")


def repeat_for(step, seconds: float):
    """Call `step` at least once and until its calls have taken `seconds`.
    Before each call the previous result is dropped and garbage collected,
    untimed. Returns the mean seconds per call and the last result."""
    calls, spent, result = 0, 0.0, None
    while calls == 0 or spent < seconds:
        result = None
        gc.collect()
        start = clock()
        result = step()
        spent += clock() - start
        calls += 1
    return spent / calls, result


@dataclass
class BatchRun:
    batch: wl.Batch
    audits: list[wl.Audit]  # identical results, one per audit repeat
    setup_s: float  # mean over set-up repeats
    run_s: float
    audit_s: float  # mean over audit repeats

    @property
    def audit(self) -> wl.Audit:
        return self.audits[0]

    def case_latencies(self) -> list[float]:
        """Seconds per audit unit, each the mean over the audit repeats."""
        return [statistics.fmean(unit) for unit in zip(*(a.unit_latencies for a in self.audits))]


def run_batch(setup, seed: int, sample_s: float = 0.0) -> BatchRun:
    """Set up, run and audit one batch. With `sample_s` 0 every step runs
    exactly once, which keeps traced call counts exact."""
    setup_s, batch = repeat_for(lambda: setup(seed), sample_s)
    run_s = 0.0
    for world in batch.worlds:
        start = clock()
        world.run()
        run_s += clock() - start
    audits = []
    audit_s = repeat_for(lambda: audits.append(wl.audit(batch.worlds)), sample_s)[0]
    return BatchRun(batch, audits, setup_s, run_s, audit_s)


def reference_check(checks: wl.Checks) -> None:
    """One generated lifecycle copy must replay lifecycle_full.yaml exactly."""
    reference = fx.run_scenario(fx.load_scenario(wl.LIFECYCLE_FILE))
    one = run_batch(lambda _seed: wl.setup_lifecycle(None, copies=1), 0)
    checks.expect(
        wl.event_log_bytes(one.batch.worlds[0]) == wl.event_log_bytes(reference),
        "lifecycle with one copy does not reproduce lifecycle_full.yaml",
    )
    wl.check(one.batch, one.audit, checks)


def log_digest(batch: wl.Batch) -> str:
    h = hashlib.sha256()
    for world in batch.worlds:
        h.update(wl.event_log_bytes(world))
    return h.hexdigest()


def timed_loop(seconds: float):
    """Yields once per batch: at least once, then again only while another
    batch as long as the last one still ends within `seconds`."""
    deadline = clock() + seconds
    while True:
        begin = clock()
        yield
        now = clock()
        if now + (now - begin) > deadline:
            return


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, checks: wl.Checks) -> dict:
    setup = wl.SETUPS[workload]
    reference_check(checks)
    setup_samples, rates, audits, p50s, tails = [], [], [], [], []
    for _ in timed_loop(seconds):
        b = run_batch(setup, seed, SAMPLE_S)
        wl.check(b.batch, b.audit, checks)
        setup_samples.append(b.setup_s)
        rates.append(sum(wl.committed_txs(w) for w in b.batch.worlds) / b.run_s)
        audits.append(b.audit_s)
        units = b.case_latencies()
        tail_p = tail_percentile(len(units))
        p50s.append(percentile(units, 50) * 1e3)
        tails.append(percentile(units, tail_p) * 1e3)
        del b
    print(
        f"# {workload}: {len(rates)} batches, {len(units)} audit units per batch, "
        f"audit_case_tail_ms is p{tail_p}\n"
        f"# committed_tx_per_s by batch: {' '.join(f'{r:.1f}' for r in rates)}"
    )
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "committed_tx_per_s": metric(statistics.median(rates), "tx/s"),
        "audit_s": metric(statistics.median(audits), "s"),
        "audit_case_p50_ms": metric(statistics.median(p50s), "ms"),
        "audit_case_tail_ms": metric(statistics.median(tails), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure_traced(workload: str, seed: int, seconds: float, checks: wl.Checks) -> dict:
    """Per-layer figures from traced passes: the reference check plus one
    batch, each followed by the same batch untraced for the overhead and the
    event-log digest comparison."""
    setup = wl.SETUPS[workload]
    tracer = Tracer(wl.ALL_LAYERS)
    calls, self_s, overheads = None, {layer: [] for layer in wl.ALL_LAYERS}, []
    for _ in timed_loop(seconds):
        tracer.reset()
        tracer.install()
        try:
            reference_check(checks)
            before = dict(tracer.calls)
            traced = run_batch(setup, seed)
        finally:
            tracer.uninstall()
        batch_calls = {k: tracer.calls[k] - before[k] for k in tracer.layers}
        silent = [k for k in wl.EXPECTED_LAYERS[workload] if batch_calls[k] == 0]
        if silent:
            raise RuntimeError(f"trace recorded no calls on {workload} for {silent}")
        wl.check(traced.batch, traced.audit, checks)
        if calls is None:
            calls = dict(tracer.calls)
            worlds = traced.batch.worlds
            committed = sum(wl.committed_txs(w) for w in worlds)
            counts = {
                "chain.txs_per_block": metric(
                    committed / sum(len(c.blocks) for w in worlds for c in w.chains.values()),
                    "tx/block",
                ),
                "comm.receive.useful_ratio": metric(
                    sum(
                        len(e.submissions)
                        for w in worlds for c in w.contracts.values() for e in c.entries.values()
                    ) / batch_calls["comm.VerificationContract.receive"],
                    "ratio",
                ),
                "comm.envelopes_per_routed_tx": metric(
                    sum(w.envelopes_sent for w in worlds) / sum(len(w.reports) for w in worlds),
                    "envelopes/tx",
                ),
                "sim.committed_txs": metric(committed, "count"),
                "sim.events": metric(sum(len(w.events) for w in worlds), "count"),
                "sim.routed_txs": metric(sum(len(w.reports) for w in worlds), "count"),
            }
        else:
            checks.expect(tracer.calls == calls, "call counts differ between traced passes")
        for layer in tracer.layers:
            self_s[layer].append(tracer.self_s[layer])
        traced_digest = log_digest(traced.batch)
        traced_run_s = traced.run_s
        del traced
        plain = run_batch(setup, seed)
        wl.check(plain.batch, plain.audit, checks)
        checks.expect(
            log_digest(plain.batch) == traced_digest,
            "traced and untraced event logs differ",
        )
        overheads.append(traced_run_s - plain.run_s)
        del plain
    print(f"# {workload}: {len(overheads)} traced passes")
    metrics = {}
    for layer in tracer.layers:
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
        metrics[f"{layer}.self_s"] = metric(statistics.median(self_s[layer]), "s")
    metrics.update(counts)
    metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checks = wl.Checks()
    measure_fn = measure_traced if trace else measure
    metrics = measure_fn(workload, seed, seconds, checks)
    for failure in checks.failures[:20]:
        print(f"# FAILED: {failure}")
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a child process of its own, so peak memory is per
    workload; metric names are prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.SETUPS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise RuntimeError(f"{workload} exited with {child.returncode}")
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            if line.startswith("#"):
                print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.SETUPS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
