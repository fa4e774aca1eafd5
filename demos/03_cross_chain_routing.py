"""Routing one transaction between chains, with and without the bridge.

The mesh pays one verification hop per destination; the bridge adds a
source-to-bridge hop in front. Each hop accepts a translation only once a
strict majority of the mutual nodes submitted byte-identical envelopes, so
a lone compromised translator changes nothing.
"""
from dataclasses import replace

from forensicross import Design, route_transaction
from forensicross.payloads import CaseCreatePayload, payload_transaction
from forensicross.scenario import FAULT_COMPROMISE, FaultSpec, RULE_EQUIVOCATE
from forensicross.sim import World, make_comparison_scenario


def route_once(design: Design, faults=()):
    scenario = make_comparison_scenario(3, design, "single")
    scenario = replace(scenario, workload=(), faults=tuple(faults))
    world = World(scenario)
    tx = payload_transaction(CaseCreatePayload("C-42"), "A", world.users["creator"][1], ("B",))
    report = route_transaction(tx, world)
    print(f"[{design.value}] tx {report.tx_id}: status={report.status}, "
          f"duration={report.duration} ticks, messages={report.message_count}")
    for hop in report.hop_records():
        print(f"    t={hop['logical_time']:>2}  {hop['hop']:<19} on {hop['chain']:<6} "
              f"({hop['message_count']} msgs, {hop['status']})")
    return report


print("= honest routing =")
mesh = route_once(Design.MESH)
bridge = route_once(Design.BRIDGE)
print(f"bridge/mesh duration ratio: {bridge.duration / mesh.duration}")

print()
print("= one lying translator out of three =")
route_once(
    Design.BRIDGE,
    faults=[FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m0", rule=RULE_EQUIVOCATE)],
)

print()
print("= a colluding majority (the documented failure bound) =")
route_once(
    Design.BRIDGE,
    faults=[
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m0", rule=RULE_EQUIVOCATE),
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m1", rule=RULE_EQUIVOCATE),
    ],
)
