#!/usr/bin/env python3
"""Where does pumping stop helping, and what survives at any distance?

Pumping a stored pair forever drives its fidelity to a fixed point where
the purification gain balances the noise each round injects; growing the
nesting depth sends those fixed points toward a distance-independent
asymptote.  Both limits depend on the initial fidelity, the local error
rates and the error-type mix upsilon.
"""

from qrepeater import (
    LinkParams,
    NoiseParams,
    ProtocolConfig,
    asymptotic_fidelity,
    fixed_point_at_distance,
    p_em_for_fidelity,
    sweep,
)

EPS = 10 ** (-0.2)


def config(f0, upsilon=0.0, p=0.995):
    link = LinkParams(
        l0_km=20.0, attenuation_db_per_km=0.2,
        p_em=p_em_for_fidelity(min(f0, 0.9999), EPS),
        eps_local=1.0, t0_s=1e-6, tc_s=70e-6,
    )
    return ProtocolConfig(
        link=link, noise=NoiseParams(p, p, upsilon), m=3, target_span=15, f0=f0
    )


print("fixed point vs distance (F0 = 0.98, 0.5% errors):")
for span in (3, 7, 15, 31, 63, 127):
    fp = fixed_point_at_distance(config(0.98), span)
    print(f"  span {span:<4} F_FP = {fp.value:.6f}   ({fp.iterations} pump rounds)")

print("\ndistance asymptote vs initial fidelity:")
for f0 in (0.96, 0.97, 0.98, 0.99, 1.0):
    asym = asymptotic_fidelity(config(f0))
    note = "" if asym.converged else "  <- no useful asymptote (entanglement lost at depth)"
    print(f"  F0 = {f0:<5} F_inf = {asym.value:.6f}{note}")

print("\ndistance asymptote vs error-type mix (F0 = 0.99):")
print("  upsilon = 0 is a pure phase error; 0.5 spreads it evenly over")
print("  the other Bell states.")
for upsilon in (0.0, 0.1, 0.2, 0.3):
    asym = asymptotic_fidelity(config(0.99, upsilon=upsilon))
    print(f"  upsilon = {upsilon:<4} F_inf = {asym.value:.6f}")

print("\ngate quality sweep at F0 = 0.98 (p = eta jointly):")
for row in sweep(config(0.98), {"p_eta": [1.0, 0.9975, 0.995, 0.9925]}):
    note = "" if row["f_inf"] > 0.5 else "  <- entanglement lost at depth"
    print(f"  p = eta = {row['p_eta']:<7} F(15 spans) = {row['fidelity']:.6f}   "
          f"F_inf = {row['f_inf']:.6f}{note}")
