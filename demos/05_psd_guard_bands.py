"""Out-of-band emissions at the full reference scale.

Measures the Welch PSD of both transmit chains, then searches for the
smallest number of nulled edge subcarriers meeting the -30 dB out-of-band
threshold.  The filtered chain needs roughly half the guards.

Runtime is about 4.5 s on a 2-vCPU machine (7 Welch estimates per family
for the bisected guard search); pass --quick for a coarse 20-trial version,
about 1.3 s.
"""

import sys

import numpy as np

from ddmod import guard_count_for_threshold, psd_estimate, qpsk_grid, table1_config
from ddmod.drufmc import ufmc_modulate_ft
from ddmod.ofdm import ofdm_modulate
from ddmod.transforms import isfft

cfg = table1_config()
trials = 20 if "--quick" in sys.argv else 100


def generator(waveform):
    def for_guard(n_guard):
        def frame(rng):
            x_ft = isfft(qpsk_grid(rng, cfg.k, cfg.n))
            if n_guard:
                x_ft[:n_guard, :] = 0
                x_ft[cfg.k - n_guard:, :] = 0
            if waveform == "drufmc":
                return ufmc_modulate_ft(x_ft, cfg)
            return ofdm_modulate(x_ft, cfg)
        return frame
    return for_guard


print(f"bandwidth {cfg.bandwidth_hz / 1e6:.2f} MHz, threshold {cfg.delta_oob_db:g} dB, "
      f"{trials} frames per estimate")
for wf in ("otfs", "drufmc"):
    est = psd_estimate(generator(wf)(0), cfg, trials=trials, seed=1234)
    db = est.db_rel_peak()
    oob = np.abs(est.freqs_hz) > cfg.bandwidth_hz / 2
    print(f"\n{wf}: unnulled out-of-band max {db[oob].max():.1f} dB, "
          f"floor {db[oob].min():.1f} dB")
    n_g = guard_count_for_threshold(generator(wf), cfg, trials=trials, seed=1234)
    print(f"{wf}: 2N_G = {2 * n_g} edge subcarriers nulled to meet {cfg.delta_oob_db:g} dB")
