"""Sample a linear time-varying EVA channel and inspect its structure.

Each realization is a set of 9 paths with Jakes-distributed Doppler shifts.
The channel object stores each path once: its window of tap columns at
symbol 0, and one Doppler phase per symbol.  It applies them as banded
per-symbol matrices whose band width is the channel memory.
"""

import numpy as np

from ddmod import channel as ch
from ddmod import desk_config

cfg = desk_config()
v = 500 / 3.6  # 500 km/h in m/s

paths = ch.sample_eva_paths(seed=42, v_max_ms=v, f_c_hz=cfg.f_c_hz)
nu_max = ch.max_doppler_hz(v, cfg.f_c_hz)
print(f"max Doppler at 500 km/h, 28 GHz: {nu_max / 1e3:.2f} kHz")
print(f"{paths.gains.size} paths, delays {paths.delays_s * 1e9} ns")
print(f"path powers: {np.round(np.abs(paths.gains) ** 2, 4)}")
print(f"path Dopplers/nu_max: {np.round(paths.dopplers_hz / nu_max, 3)}")

mats = ch.realize(paths, cfg, with_cp=False)
l_ch = mats.l_ch
print(f"\nchannel memory: L_ch = {l_ch} taps at {cfg.sample_period_s * 1e9:.1f} ns spacing, "
      f"{np.unique(mats.tap_index).size} of them active")
m = mats.matrix(0)
print(f"per-symbol matrix shape: {m.shape} (banded, {l_ch} diagonals)")

# the matrix applies a time-varying convolution
rng = np.random.default_rng(1)
x = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
y = m @ x
direct = np.zeros(m.shape[0], dtype=complex)
h = np.zeros((m.shape[0], l_ch), dtype=complex)   # symbol 0: h[r, l], zero off stored columns
# each stored entry is one path's tap column; overlapping windows share a column
np.add.at(h, (slice(None), mats.tap_index), mats.phase[0] * mats.taps)
for r in range(direct.size):
    for ell in range(l_ch):
        if 0 <= r - ell < x.size:
            direct[r] += h[r, ell] * x[r - ell]
err = np.abs(y - direct).max()
print("matrix vs direct time-varying convolution:", err)
assert err < 1e-12, f"matrix and direct convolution disagree by {err}"
