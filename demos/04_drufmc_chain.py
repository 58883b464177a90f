"""The filtered CP-less chain: overlap-add transmission and its matrix form.

Two independent constructions of the transmitter agree to machine precision.
The raw loopback is NOT transparent (the prototype filter's group delay lands
between delay bins), but the distortion is linear and sits inside the
effective channel, so MMSE detection absorbs it.
"""

import numpy as np

from ddmod import channel as ch
from ddmod import apply_channel, desk_config, qpsk_grid, sinr_map
from ddmod.drufmc import (
    dd_to_ft_kron,
    drufmc_demodulate,
    drufmc_effective_channel,
    drufmc_modulate,
    ufmc_stacked_precoder,
)
from ddmod.transforms import vec

cfg = desk_config()
rng = np.random.default_rng(4)
x = qpsk_grid(rng, cfg.k, cfg.n)

print("== dual construction ==")
s_proc = drufmc_modulate(x, cfg)
s_mat = ufmc_stacked_precoder(cfg) @ dd_to_ft_kron(cfg) @ vec(x)
print("overlap-add vs stacked precoder:", np.abs(s_proc - s_mat).max())
print(f"serialized length: {s_proc.size} = K*O_s*N (no CP, same air time as the payload)")

print("\n== ideal channel: raw chain vs MMSE ==")
chan = ch.realize(ch.ideal_path(), cfg, with_cp=False)
y = drufmc_demodulate(apply_channel(s_proc, chan, 1.0, 0.0), cfg)
raw_err = np.mean(np.abs(y - x) ** 2)
print(f"raw loopback mean-square error: {raw_err:.3f} "
      "(group delay spreads bins; see the effective channel)")

eff = drufmc_effective_channel(chan, cfg)
for snr_db in (10.0, 20.0, 30.0):
    smap = sinr_map(eff, 10 ** (-snr_db / 10), cfg)
    print(f"post-MMSE net SINR at {snr_db:4.0f} dB SNR: "
          f"{10 * np.log10(smap.mean()):6.2f} dB")
