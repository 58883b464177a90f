"""Out-of-band emissions at the full reference scale.

Measures the Welch PSD of both transmit chains, then searches for the
smallest number of nulled edge subcarriers meeting the -30 dB out-of-band
threshold, both through ``run_psd``.  The filtered chain needs roughly half
the guards.

Runtime is about 0.5 s and peak RSS about 49 MB, start-up included, on a
2-vCPU machine with OpenBLAS on one thread (4 Welch estimates for OTFS and 3
for DR-UFMC in the skirt-guided guard search, each modulating the same 100
frames, drawn once, with one inverse FFT per symbol; the two families on one
thread each); pass --quick for a coarse 20-trial version, about 0.28 s.
"""

import sys

import numpy as np

from ddmod import ExperimentConfig, ModemConfig, run_psd

cfg = ModemConfig()
trials = 20 if "--quick" in sys.argv else 100

print(f"bandwidth {cfg.bandwidth_hz / 1e6:.2f} MHz, threshold {cfg.delta_oob_db:g} dB, "
      f"{trials} frames per estimate")
summary = run_psd(ExperimentConfig(modem=cfg, waveforms=("otfs", "drufmc"), psd_trials=trials,
                                   seed=1234))
for wf, (est, n_g) in summary.items():
    db = est.db_rel_peak()
    oob = np.abs(est.freqs_hz) > cfg.bandwidth_hz / 2
    print(f"\n{wf}: unnulled out-of-band max {db[oob].max():.1f} dB, "
          f"floor {db[oob].min():.1f} dB")
    print(f"{wf}: 2N_G = {2 * n_g} edge subcarriers nulled to meet {cfg.delta_oob_db:g} dB")
