"""Radial and chordal Loewner transition maps, two backends each.

The radial family on the disk solves dB/dt = -B phi(t, B) with a Herglotz
driver; the chordal family on the half-plane solves dB/ds = P(s, B) with
P(s, w) = sum of c / (x - w) over the atoms of its driver.  A driver that is
a single atom on each segment admits a closed form, one exact map per
segment: the Koebe driver (Dirac at -1) goes through the inverse of
e^t z/(1-z)^2, and the basic slit (Dirac at 0) gives sqrt(z^2 - 2(s-r)).
A multi-atom measure needs RK4.
"""

import math

from loewnerkit import (
    RUNGE_KUTTA,
    AtomicMeasure,
    ChordalFlowSpec,
    RadialFlowSpec,
    chordal_transition,
    flow_trace,
    radial_transition,
)

print("== Radial Koebe flow ==")
koebe_cf = RadialFlowSpec.koebe(0.0, 1.0)
koebe_rk = RadialFlowSpec.koebe(0.0, 1.0, backend=RUNGE_KUTTA)
z = 0.5 + 0.2j
for t in (0.0, 0.5, 1.0):
    b_cf = radial_transition(koebe_cf, t, z)
    b_rk = radial_transition(koebe_rk, t, z)
    print(f"t={t:3.1f}  B(z)={b_cf:.12f}  |closed-form - RK4| = {abs(b_cf - b_rk):.2e}")

print()
print("two-parameter semigroup: B_rt = B_st o B_rs")
b_rs = radial_transition(RadialFlowSpec.koebe(0.0, 0.4), 0.4, z)
composed = radial_transition(RadialFlowSpec.koebe(0.4, 1.0), 1.0, b_rs)
direct = radial_transition(koebe_cf, 1.0, z)
print(f"composition error: {abs(composed - direct):.2e}")

print()
print("== Chordal slit flow ==")
slit = ChordalFlowSpec.basic_slit(0.0, 1.0)
print("trace of i under the slit flow (t, B_t(i)):")
for t, b in flow_trace(slit, 1j, 5):
    print(f"  t={t:5.2f}  B={b:.12f}")
print(f"hand check: B_1(i) = i sqrt(3) = {1j * math.sqrt(3):.12f}")

print()
print("== A measure-driven chordal flow (RK4 only) ==")
nu = AtomicMeasure(((0.0, 0.6), (1.0, 0.4)))
driven = ChordalFlowSpec(0.0, 1.0, ((0.0, nu),), backend=RUNGE_KUTTA)
print(f"B_1(i) under nu = 0.6 delta_0 + 0.4 delta_1: {chordal_transition(driven, 1.0, 1j):.12f}")
