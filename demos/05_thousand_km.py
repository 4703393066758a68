#!/usr/bin/env python3
"""Entanglement good enough to violate a Bell inequality over 1000 km.

Fifty 20 km segments round up to a 63-segment schedule (1260 km).  With
an 8% emission probability, a declared collection efficiency above 0.2,
0.5% local errors and a single pumping step per level, the end-to-end
pair beats the 0.78 CHSH threshold with seconds-scale expected time.
"""

import math

from qrepeater import (
    LinkParams,
    NoiseParams,
    ProtocolConfig,
    channel_efficiency,
    fidelity,
    initial_fidelity,
    round_span_up,
)
from qrepeater.cli import BELL_VIOLATION_FIDELITY
from qrepeater.protocol import Ladder

link = LinkParams(
    l0_km=20.0,
    attenuation_db_per_km=0.2,
    p_em=0.08,
    eps_local=0.5,
    t0_s=1e-6,
    tc_s=70e-6,
)
eps = channel_efficiency(link)
span = round_span_up(math.ceil(1000.0 / link.l0_km))
cfg = ProtocolConfig(
    link=link, noise=NoiseParams(0.995, 0.995, 0.0), m=1, target_span=span
)
ladder = Ladder(cfg)
total_time = ladder.time(cfg.depth).mean
final_f = fidelity(ladder.pair(cfg.depth))

print(f"declared efficiency   : {eps:.4f}")
print(f"elementary fidelity   : {initial_fidelity(link.p_em, eps):.4f}")
print(f"schedule              : spans {[2**k - 1 for k in range(2, cfg.depth + 2)]}")
print(f"covered distance      : {span * link.l0_km:.0f} km")
print(f"final fidelity        : {final_f:.4f}")
print(f"expected total time   : {total_time:.2f} s")
verdict = "yes" if final_f > BELL_VIOLATION_FIDELITY else "no"
print(f"violates CHSH (> {BELL_VIOLATION_FIDELITY})? {verdict}")

print("\nper-level trace:")
print("span  fidelity   expected time")
for depth in range(1, cfg.depth + 1):
    span = 2 ** (depth + 1) - 1
    print(f"{span:<5} {fidelity(ladder.pair(depth)):<10.5f} {ladder.time(depth).mean:.4g} s")
