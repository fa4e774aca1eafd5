"""Deterministic workload generators, audit and correctness checks.

Every workload is a fixed batch of actions scheduled in simulated ticks: an
open loop in simulated time. The benchmark measures how fast the host drains
that batch. Inputs are derived from the bundled scenario files with
`dataclasses.replace`; no new scenario files exist.

The program is imported from the `src/` tree next to this directory, never
from an installed copy, so the benchmark always measures the checkout it
sits in.
"""
from __future__ import annotations

import dataclasses
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"


def _import_program():
    package_dir = SRC / "forensicross"
    if not (package_dir / "__init__.py").is_file():
        raise ImportError(f"forensicross sources not found in {package_dir}")
    sys.path.insert(0, str(SRC))
    import forensicross

    if Path(forensicross.__file__).resolve().parent != package_dir.resolve():
        raise ImportError(f"imported forensicross from {forensicross.__file__}, not {package_dir}")
    return forensicross


fx = _import_program()

from forensicross import scenario as fx_scenario  # noqa: E402
from forensicross import sim as fx_sim  # noqa: E402
from forensicross.payloads import VOTE_APPROVE  # noqa: E402

LIFECYCLE_FILE = SCENARIOS / "lifecycle_full.yaml"
EVIDENCE_FILE = SCENARIOS / "tamper_demo.yaml"

# The ROADMAP baseline size: 40 concurrent cases, which also puts the
# per-case audit tail at p75 with ten samples beyond it.
LIFECYCLE_CASES = 40
EVIDENCE_CASES = 40
# tamper_demo logs 3 accesses per chain per stage; 4 repeats make it 12.
EVIDENCE_ACCESS_REPEATS = 4
# Ticks between the last scripted action and the seeded tampering, so that
# every case has closed and had its provenance extracted before it.
TAMPER_DELAY = 10
SWEEP_K = range(2, 21)
SWEEP_PATTERN = "broadcast"


def copy_name(name: str, index: int) -> str:
    """Copy 0 keeps the original name, so one copy reproduces the source file."""
    return name if index == 0 or not name else f"{name}.{index}"


def replicate(base, copies: int, access_repeats: int = 1, seed: int | None = None):
    """`copies` concurrent copies of `base`'s cases, copy i offset by i ticks.

    Each access row is repeated `access_repeats` times with distinct payload
    labels. Scripted votes follow their case. `seed=None` keeps the file's
    key seed.
    """
    workload = []
    votes = []
    for i in range(copies):
        for action in base.workload:
            repeats = access_repeats if action.action == fx_scenario.ACTION_ACCESS else 1
            for r in range(repeats):
                workload.append(
                    dataclasses.replace(
                        action,
                        tick=action.tick + i,
                        case=copy_name(action.case, i),
                        payload=copy_name(action.payload, r),
                    )
                )
        votes.extend(dataclasses.replace(v, case=copy_name(v.case, i)) for v in base.votes)
    workload.sort(key=lambda a: a.tick)  # stable: copy order breaks ties
    return dataclasses.replace(
        base,
        seed=base.seed if seed is None else seed,
        workload=tuple(workload),
        votes=tuple(votes),
    )


@dataclasses.dataclass
class Expectation:
    """What the checks demand of one World after it has run and been audited.

    `cases` maps a case number to (blocked rounds, {chain: tampered stages});
    `hops` is the verification-hop count of the world's one case creation.
    """

    cases: dict[str, tuple[int, dict[str, tuple[int, ...]]]] = dataclasses.field(
        default_factory=dict
    )
    hops: int | None = None


@dataclasses.dataclass
class Batch:
    worlds: list
    expectations: list[Expectation]


def _case_expectations(scenario, tampered: dict | None = None) -> dict:
    blocked = {}
    for v in scenario.votes:
        if v.vote != VOTE_APPROVE:
            blocked[v.case] = blocked.get(v.case, 0) + 1
    out = {}
    for a in scenario.workload:
        if a.action == fx_scenario.ACTION_CREATE_CASE:
            chains = (a.chain, *a.destinations)
            verdict = {c: (tampered or {}).get((a.case, c), ()) for c in chains}
            out[a.case] = (blocked.get(a.case, 0), verdict)
    return out


def lifecycle_scenario(copies: int = LIFECYCLE_CASES, seed: int | None = None):
    return replicate(fx.load_scenario(LIFECYCLE_FILE), copies, seed=seed)


def evidence_scenario(seed: int, copies: int = EVIDENCE_CASES):
    """tamper_demo with 12 accesses per chain per stage, two compromised
    mutual nodes from tick 0 (still a majority of honest translators on
    every hop) and off-chain records tampered at seed-drawn positions after
    every case has closed. Returns (scenario, {(case, chain): stages})."""
    s = replicate(fx.load_scenario(EVIDENCE_FILE), copies, EVIDENCE_ACCESS_REPEATS, seed)
    faults = [
        fx_scenario.FaultSpec(
            0, fx_scenario.FAULT_COMPROMISE, node="A.m0", rule=fx_scenario.RULE_EQUIVOCATE
        ),
        fx_scenario.FaultSpec(
            0, fx_scenario.FAULT_COMPROMISE, node="B.m1", rule=fx_scenario.RULE_DROP
        ),
    ]
    rng = random.Random(seed)
    tick = max(a.tick for a in s.workload) + TAMPER_DELAY
    records_per_stage = 3 * EVIDENCE_ACCESS_REPEATS
    positions = [
        (chain, stage, index)
        for chain in s.chain_ids
        for stage in range(s.stage_count)
        for index in range(records_per_stage)
    ]
    tampered: dict[tuple[str, str], set[int]] = {}
    cases = [a.case for a in s.workload if a.action == fx_scenario.ACTION_CREATE_CASE]
    for case in cases:
        for chain, stage, index in rng.sample(positions, rng.randrange(3)):
            faults.append(
                fx_scenario.FaultSpec(
                    tick, fx_scenario.FAULT_TAMPER,
                    chain=chain, case=case, stage=stage, tx_index=index,
                )
            )
            tampered.setdefault((case, chain), set()).add(stage)
    verdicts = {key: tuple(sorted(stages)) for key, stages in tampered.items()}
    return dataclasses.replace(s, faults=tuple(faults)), verdicts


def setup_lifecycle(seed: int | None, copies: int = LIFECYCLE_CASES) -> Batch:
    scenario = lifecycle_scenario(copies, seed)
    return Batch([fx.World(scenario)], [Expectation(_case_expectations(scenario))])


def setup_evidence(seed: int, copies: int = EVIDENCE_CASES) -> Batch:
    scenario, tampered = evidence_scenario(seed, copies)
    return Batch([fx.World(scenario)], [Expectation(_case_expectations(scenario, tampered))])


def setup_sweep(seed: int, ks=SWEEP_K) -> Batch:
    """The compare_designs(2, 20, "broadcast") loop, World construction
    split from running so set-up can be timed on its own."""
    worlds, expectations = [], []
    for k in ks:
        mesh_hops, bridge_hops = fx.communication_counts(k, SWEEP_PATTERN)
        for design, hops in ((fx.Design.MESH, mesh_hops), (fx.Design.BRIDGE, bridge_hops)):
            worlds.append(fx.World(fx_sim.make_comparison_scenario(k, design, SWEEP_PATTERN, seed)))
            expectations.append(Expectation(hops=hops))
    return Batch(worlds, expectations)


SETUPS = {
    "lifecycle": setup_lifecycle,
    "evidence-audit": setup_evidence,
    "design-sweep": setup_sweep,
}

ALL_LAYERS = (
    "crypto.sign", "crypto.verify", "crypto.hash_bytes", "crypto.merkle_root",
    "crypto.KeyPair.derive",
    "chain.Transaction.canonical_bytes", "chain.Transaction.digest",
    "chain.Transaction.from_canonical", "chain.Chain.submit_transaction",
    "chain.Chain.mine_block", "chain.validate_chain",
    "comm.translate", "comm.VerificationContract.receive",
    "registry.BridgeRegistry.process_stage_vote",
    "registry.BridgeRegistry.record_stage_hash",
    "lifecycle.OrgChainState.data_access_tx",
    "provenance.extract_provenance", "provenance.verify_and_localize",
    "sim.World.__init__", "sim.World.run",
    "scenario.load_scenario",
)
# Layers a batch of each workload must call; a zero count there means the
# trace lost its hook. The sweep loads no file, logs no access and opens no
# stage vote or provenance request.
EXPECTED_LAYERS = {
    "lifecycle": ALL_LAYERS,
    "evidence-audit": ALL_LAYERS,
    "design-sweep": tuple(
        name for name in ALL_LAYERS
        if name.split(".")[0] not in ("scenario", "registry", "lifecycle", "provenance")
    ),
}


# -- running, auditing, checking ---------------------------------------------


@dataclasses.dataclass
class Audit:
    faults: list  # validate_chain result per chain, in world order
    verdicts: list[dict]  # per world: case -> {chain: tampered stages}
    unit_latencies: list[float]  # seconds per audited case (or per case-less world)


def audit(worlds) -> Audit:
    """validate_chain on every chain; extract + verify every case that has a
    query node. A world whose cases have none (the sweep) is one audit unit:
    validating its chains."""
    clock = time.perf_counter
    faults, verdicts, latencies = [], [], []
    for world in worlds:
        start = clock()
        faults.extend(fx.validate_chain(chain) for chain in world.chains.values())
        world_verdicts = {}
        cases = world.registry.cases if world.registry is not None else {}
        for case_number, case in cases.items():
            if not case.query_nodes:
                continue
            t = clock()
            bundle = fx.extract_provenance(
                world.registry, case_number, min(case.query_nodes), world.stores
            )
            report = fx.verify_and_localize(bundle)
            latencies.append(clock() - t)
            world_verdicts[case_number] = report.verdicts
        if not world_verdicts:
            latencies.append(clock() - start)
        verdicts.append(world_verdicts)
    return Audit(faults, verdicts, latencies)


def committed_txs(world) -> int:
    return sum(len(b.transactions) for chain in world.chains.values() for b in chain.blocks)


def blocked_rounds(case) -> int:
    return sum(
        1 for r in case.rounds if any(vote != VOTE_APPROVE for vote, _ in r.votes.values())
    )


@dataclasses.dataclass
class Checks:
    """Checked operations: how many were attempted, and what failed."""

    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check(batch: Batch, result: Audit, checks: Checks) -> None:
    """Count every check of an audited batch in `checks`."""
    expect = checks.expect
    for fault in result.faults:
        expect(fault is None, f"validate_chain: {fault}")
    for world, expectation, verdicts in zip(batch.worlds, batch.expectations, result.verdicts):
        name = world.scenario.name
        c = world.conservation()
        expect(
            c["envelopes_sent"] == c["envelopes_delivered"] and c["entries_unresolved"] == 0,
            f"{name}: conservation {c}",
        )
        for report in world.reports.values():
            expect(report.status == "delivered", f"{name}: {report.tx_id} {report.status}")
        for case_number, (blocked, verdict) in expectation.cases.items():
            case = world.registry.cases.get(case_number)
            expect(
                case is not None and case.current_stage == world.scenario.stage_count,
                f"{name}: {case_number} did not reach the last stage",
            )
            expect(
                case is not None and blocked_rounds(case) == blocked,
                f"{name}: {case_number} blocked rounds != {blocked}",
            )
            expect(
                verdicts.get(case_number) == verdict,
                f"{name}: {case_number} verdict {verdicts.get(case_number)} != {verdict}",
            )
        if expectation.hops is not None:
            hops = [
                r.verification_events for r in world.reports.values()
                if r.kind == fx.PayloadKind.CASE_CREATE.value
            ]
            expect(hops == [expectation.hops], f"{name}: hops {hops} != {expectation.hops}")


def event_log_bytes(world) -> bytes:
    """The world's events.jsonl exactly as the simulator's writer lays it out."""
    return b"".join(
        (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        for record in world.events
    )
