"""Command line: run scenarios, emit topology tables, demo tamper localization.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 tampering
detected. FORENSICROSS_OUT overrides --out when set.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import InvalidTopology, NotQueryNode, ScenarioError, UnknownCase
from .provenance import (
    bundle_to_record,
    extract_provenance,
    report_to_record,
    verify_and_localize,
)
from .scenario import load_scenario
from .sim import (
    run_scenario,
    write_event_log,
    write_metrics_csv,
    write_registry_snapshot,
)
from .topology import comparison_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_TAMPERED = 3

TOPOLOGY_COLUMNS = [
    "k", "mesh_mutual", "bridge_mutual", "mesh_hops_broadcast",
    "bridge_hops_broadcast", "m_min", "b_min",
]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is 1 for usage errors
    def error(self, message):
        raise CliError(message, EXIT_USAGE)


def _out_dir(args) -> Path:
    out = os.environ.get("FORENSICROSS_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    try:
        scenario = load_scenario(args.scenario)
    except FileNotFoundError as exc:
        raise CliError(f"scenario file not found: {exc}", EXIT_USAGE) from exc
    except OSError as exc:  # a directory, or a file this process may not read
        raise CliError(f"cannot read scenario file: {exc}", EXIT_USAGE) from exc
    except ScenarioError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed)
    return scenario


def cmd_run(args) -> int:
    scenario = _load(args)
    try:
        world = run_scenario(scenario)
    except (InvalidTopology, ScenarioError) as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc
    out = _out_dir(args)
    write_event_log(world, out / "events.jsonl")
    write_metrics_csv(world, out / "metrics.csv")
    write_registry_snapshot(world, out / "registry.json")
    print(
        f"{scenario.name}: {len(world.events)} events, "
        f"{len(world.reports)} routed transactions -> {out}"
    )
    return EXIT_OK


def cmd_topology(args) -> int:
    try:
        rows = comparison_table(args.k_min, args.k_max)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    out = _out_dir(args)
    path = out / "topology.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOPOLOGY_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in TOPOLOGY_COLUMNS])
    if args.format == "csv":
        print(",".join(TOPOLOGY_COLUMNS))
        for row in rows:
            print(",".join(str(row[c]) for c in TOPOLOGY_COLUMNS))
    else:
        widths = {c: max(len(c), 6) for c in TOPOLOGY_COLUMNS}
        print("  ".join(c.ljust(widths[c]) for c in TOPOLOGY_COLUMNS))
        for row in rows:
            print("  ".join(str(row[c]).ljust(widths[c]) for c in TOPOLOGY_COLUMNS))
    return EXIT_OK


def _parse_tamper(spec: str) -> tuple[str, int, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError(f"--tamper must be chain:stage:txindex, got {spec!r}", EXIT_USAGE)
    chain, stage, index = parts
    try:
        return chain, int(stage), int(index)
    except ValueError as exc:
        raise CliError(f"bad --tamper spec {spec!r}: {exc}", EXIT_USAGE) from exc


def render_tamper_matrix(report, stage_count: int, chains: list[str]) -> str:
    """Stage x chain matrix; tampered cells carry an X."""
    header = "chain".ljust(8) + "".join(f"stage{s}".center(9) for s in range(stage_count))
    lines = [header]
    for chain in chains:
        stages = set(report.tampered_stages(chain))
        cells = "".join(
            ("X" if s in stages else ".").center(9) for s in range(stage_count)
        )
        lines.append(chain.ljust(8) + cells)
    return "\n".join(lines)


def cmd_provenance_demo(args) -> int:
    scenario = _load(args)
    try:
        world = run_scenario(scenario)
    except (InvalidTopology, ScenarioError) as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc
    if world.registry is None or not world.registry.cases:
        raise CliError("scenario produced no registered cases", EXIT_VALIDATION)
    case_number = sorted(world.registry.cases)[0]
    case = world.registry.cases[case_number]
    for spec in args.tamper or []:
        chain, stage, index = _parse_tamper(spec)
        try:
            world.stores[chain].tamper(case_number, stage, index)
        except (KeyError, IndexError) as exc:
            raise CliError(
                f"no stored transaction at {chain}:{stage}:{index}", EXIT_VALIDATION
            ) from exc
    requesters = sorted(case.query_nodes)
    if not requesters:
        raise CliError(f"case {case_number} has no query nodes", EXIT_VALIDATION)
    try:
        bundle = extract_provenance(
            world.registry, case_number, requesters[0], world.stores
        )
    except (UnknownCase, NotQueryNode) as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc
    report = verify_and_localize(bundle)
    out = _out_dir(args)
    (out / "bundle.json").write_text(
        json.dumps(bundle_to_record(bundle), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (out / "tamper_report.json").write_text(
        json.dumps(report_to_record(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"case {case_number} provenance across {len(bundle.sections)} chains")
    print(render_tamper_matrix(report, bundle.stage_count, sorted(bundle.sections)))
    if report.tampered:
        tampered = {
            chain: list(stages)
            for chain, stages in sorted(report.verdicts.items())
            if stages
        }
        print(f"TAMPERED: {tampered}")
        return EXIT_TAMPERED
    print("all chains intact")
    return EXIT_OK


def cmd_version(_args) -> int:
    print(f"forensicross {__version__}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="forensicross", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its artifacts")
    run_p.add_argument("--scenario", required=True, help="scenario YAML file")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    run_p.set_defaults(fn=cmd_run)

    topo_p = sub.add_parser("topology", help="emit the mesh-vs-bridge comparison table")
    topo_p.add_argument("--k-min", type=int, default=2)
    topo_p.add_argument("--k-max", type=int, default=10)
    topo_p.add_argument("--out", default="out")
    topo_p.add_argument("--format", choices=["csv", "structured-text"], default="csv")
    topo_p.set_defaults(fn=cmd_topology)

    demo_p = sub.add_parser(
        "provenance-demo", help="run a scenario, optionally tamper, verify provenance"
    )
    demo_p.add_argument("--scenario", required=True)
    demo_p.add_argument("--out", default="out")
    demo_p.add_argument("--seed", type=int, default=None)
    demo_p.add_argument(
        "--tamper", action="append", default=[],
        metavar="CHAIN:STAGE:TXINDEX",
        help="tamper one off-chain record after the run (repeatable)",
    )
    demo_p.set_defaults(fn=cmd_provenance_demo)

    ver_p = sub.add_parser("version", help="print the version")
    ver_p.set_defaults(fn=cmd_version)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
