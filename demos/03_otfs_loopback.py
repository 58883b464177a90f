"""The delay-Doppler CP chain end to end.

On an ideal channel the chain is exactly transparent.  On a mobile EVA
channel the dense effective matrix reproduces the full modulate/channel/
demodulate chain column by column, which is what makes matrix-domain MMSE
detection equivalent to running the receiver.
"""

import numpy as np

from ddmod import channel as ch
from ddmod import (
    apply_channel,
    desk_config,
    normalized_mse,
    otfs_demodulate,
    otfs_modulate,
    qpsk_grid,
)
from ddmod.metrics import mmse_detect
from ddmod.otfs import otfs_effective_channel
from ddmod.transforms import invec, vec

cfg = desk_config()
rng = np.random.default_rng(3)

print("== ideal channel ==")
chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
x = qpsk_grid(rng, cfg.k, cfg.n)
y = otfs_demodulate(apply_channel(otfs_modulate(x, cfg), chan, 0.0), cfg)
print("loopback error:", np.abs(y - x).max())

print("\n== EVA channel at 500 km/h ==")
paths = ch.sample_eva_paths(7, 500 / 3.6, cfg.f_c_hz)
chan = ch.realize(paths, cfg, with_cp=True)
eff = otfs_effective_channel(chan, cfg)

j = int(rng.integers(cfg.k * cfg.n))
e = np.zeros(cfg.k * cfg.n)
e[j] = 1.0
probe = vec(otfs_demodulate(
    apply_channel(otfs_modulate(invec(e, cfg.k), cfg), chan, 0.0), cfg))
rel = np.linalg.norm(probe - eff[:, j]) / np.linalg.norm(eff[:, j])
print(f"chain vs matrix, probed column {j}: relative error {rel:.2e}")

snr_db = 20.0
sigma2 = 10 ** (-snr_db / 10)
s = otfs_modulate(x, cfg)
r = apply_channel(s, chan, sigma2, seed=9)
y = vec(otfs_demodulate(r, cfg))
x_hat = mmse_detect(eff, y, sigma2)
print(f"MMSE detection at {snr_db:.0f} dB SNR: NMSE = {normalized_mse(x_hat, vec(x)):.4f}")
