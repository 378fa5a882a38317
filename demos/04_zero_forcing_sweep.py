#!/usr/bin/env python3
"""Desk-size zero-forcing precoding sweep.

Builds the precoder W = H^H (H H^H)^-1 as a recorded graph, then compares
computing schemes across target average precisions on a few frozen
channels.  A fuller sweep with CSV output is available through the CLI:

    varprec --out-dir out pareto --nt 4 --k 4 --trials 20
"""

import numpy as np

from varprec.graph import topo_stats
from varprec.mimo import SimConfig, build_zf_graph, pareto_sweep, reference_rate

zfg = build_zf_graph(4, 4)
st = topo_stats(zfg.graph)
counts = {op.value: c for op, c in st.op_counts.items() if op.value != "input"}
print(f"4x4 precoder graph: {st.total_arith} basic operations {counts}")
print(f"parts: gram product, inverse (unrolled elimination), final product")

cfg = SimConfig(n_t=4, k_users=4, snr_db=10.0, trials=6, seed=2,
                sweep=(3, 6, 12, 32), schemes=("fixed", "offline", "online"))
print(f"\nsweeping {len(cfg.sweep)} targets x {len(cfg.schemes)} schemes over "
      f"{cfg.trials} frozen channels (SNR {cfg.snr_db:.0f} dB)...")
points = pareto_sweep(cfg)
ref = reference_rate(cfg)

print(f"\nreference-precision sum rate: {ref:.3f} bit/s/Hz")
print(f"{'scheme':>10} {'target':>7} {'realized':>9} {'complexity':>11} "
      f"{'sum rate':>9} {'fails':>6}")
for p in points:
    print(f"{p.scheme:>10} {p.target_avg_bits:>7.0f} {p.realized_avg_bits:>9.2f} "
          f"{p.total_complexity:>11.0f} {p.sum_rate_mean:>9.3f} {p.failures:>6}")

lowest = min(cfg.sweep)
fx = next(p for p in points if p.scheme == "fixed" and p.target_avg_bits == lowest)
on = next(p for p in points if p.scheme == "online" and p.target_avg_bits == lowest)
print(f"\nat {lowest:.0f} bits the adaptive scheme delivers "
      f"{(on.sum_rate_mean / fx.sum_rate_mean - 1) * 100:+.0f}% sum rate over "
      f"fixed-length computing; at 32 bits all schemes match the reference.")
