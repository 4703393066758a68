#!/usr/bin/env python3
"""Fidelity and time scaling of the full nested protocol.

Each nesting level doubles-and-one the span: purified pairs of span n
plus a fresh central link form a stored pair of span 2n+1, which is then
pumped m times with fresh same-span fodder pairs.  With a few percent of
gate error the fidelity stops falling after a couple of levels, while
the expected time grows by a roughly constant factor per level --
polynomial in distance, not exponential.

Writes fidelity_vs_distance.csv with one column per pumping depth.
"""

import csv

from qrepeater import (
    LinkParams,
    NoiseParams,
    ProtocolConfig,
    fidelity,
    monte_carlo_time,
    p_em_for_fidelity,
    run_protocol,
)

EPS = 10 ** (-0.2)  # 20 km of 0.2 dB/km fiber, unit local efficiency
F0 = 0.98

link = LinkParams(
    l0_km=20.0,
    attenuation_db_per_km=0.2,
    p_em=p_em_for_fidelity(F0, EPS),
    eps_local=1.0,
    t0_s=1e-6,
    tc_s=70e-6,
)
noise = NoiseParams(p=0.995, eta=0.995)
spans = (3, 7, 15, 31, 63, 127)

print(f"initial fidelity {F0}, gate and measurement errors 0.5%\n")
print("span  km     m=0        m=1        m=3        time(m=3)   ratio")
rows = []
prev_time = None
for span in spans:
    fids = {}
    for m in (0, 1, 3):
        cfg = ProtocolConfig(link=link, noise=noise, m=m, target_span=span)
        result = run_protocol(cfg)
        fids[m] = fidelity(result.final)
        if m == 3:
            total = result.total_expected_time
    ratio = f"{total / prev_time:.2f}" if prev_time else "  - "
    prev_time = total
    print(
        f"{span:<5} {span*20:<6} {fids[0]:<10.6f} {fids[1]:<10.6f} "
        f"{fids[3]:<10.6f} {total:<11.4g} {ratio}"
    )
    rows.append([span, span * 20, fids[0], fids[1], fids[3], total])

with open("fidelity_vs_distance.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["span", "distance_km", "f_m0", "f_m1", "f_m3", "time_m3_s"])
    writer.writerows(rows)
print("\nwrote fidelity_vs_distance.csv")

print("\ncross-checking the span-15 expected time by discrete-event sampling:")
cfg = ProtocolConfig(link=link, noise=noise, m=3, target_span=15)
analytic = run_protocol(cfg).total_expected_time
mc = monte_carlo_time(cfg, seed=99, trials=10_000)
print(f"  analytic  : {analytic:.4f} s")
print(f"  sampled   : {mc.mean:.4f} s  (median {mc.quantiles[0.5]:.4f}, p90 {mc.quantiles[0.9]:.4f})")
print(f"  deviation : {abs(analytic - mc.mean) / mc.mean * 100:.1f}%")
