#!/usr/bin/env python3
"""Recording a computation and planning its per-operation precision.

A small expression graph is recorded once, then assigned precisions three
ways: a fixed plan, the value-free offline planner (expectation factors,
reverse sweep), and the online planner (actual operand values, plans while
it executes).
"""

from fractions import Fraction

import numpy as np

from varprec.ebfp import decode
from varprec.graph import ExprGraph, execute, predicted_errors, topo_stats
from varprec.optimizer import (
    ComplexityModel,
    UtilityConfig,
    XoptLut,
    fixed_plan,
    offline_vpc,
    online_vpc,
    plan_metrics,
)

# record ((a + b) * c - d / a) and a square root of it
g = ExprGraph()
a, b, c, d = (g.add_input() for _ in range(4))
s1 = g.record("add", [a, b])
m1 = g.record("mul", [s1, c])
q1 = g.record("div", [d, a])
t1 = g.record("sub", [m1, q1])
r1 = g.record("sqrt", [t1])

st = topo_stats(g)
print(f"recorded {st.total_arith} operations, depth {st.depth}")
for n in g.nodes:
    print(f"  node {n.id}: {n.op.value:>5} {n.operands} at step {n.step}")

cm = ComplexityModel()   # add:sub:mul:div:sqrt cost 1:1:30:30:80 per bit
cfg = UtilityConfig(alpha=1e-9, x_min=4, x_max=64)

print()
print("the lookup table maps sensitivity/cost ratios to integer precisions;")
print("multiplying the ratio by 4 moves the answer up exactly one bit:")
lut = XoptLut(cm, cfg)
rho = lut.thresholds[list(lut.thresholds)[2]][8] * 0.9
for k in range(3):
    print(f"  rho * 4^{k}: x = {lut.lookup(rho * 4 ** k, 'mul')}")

print()
plans = {
    "fixed(12)": fixed_plan(g, 12),
    "offline": offline_vpc(g, cfg, cm),
}
vals = {a: Fraction(5, 4), b: Fraction(7, 8), c: Fraction(3, 2), d: Fraction(1, 3)}
res_on, plan_on = online_vpc(g, cfg, cm, vals)
plans["online"] = plan_on

for name, plan in plans.items():
    avg, total = plan_metrics(g, plan, cm)
    print(f"{name:>10}: {dict(sorted(plan.assignment.items()))} "
          f"(weighted avg {avg:.2f} bits, complexity {total:.0f})")

print()
print("executing under each plan, against a 64-bit reference:")
ref = execute(g, fixed_plan(g, 64), vals, input_precision=64)
ref_val = decode(ref.values[r1])
for name, plan in plans.items():
    res = res_on if name == "online" else execute(g, plan, vals, input_precision=53)
    got = decode(res.values[r1])
    err = abs(got - ref_val) / ref_val
    pred = predicted_errors(g, res)[r1] ** 0.5
    print(f"{name:>10}: result {float(got):.10f}, rel err {float(err):.2e}, "
          f"predicted sigma {pred:.2e}")
