"""Small paired benchmark: all four receivers on common channel realizations.

Reproduces the qualitative picture of the SINR/SE comparison at desk scale:
the three full-MMSE chains are nearly speed-insensitive while one-tap FDE
collapses at 500 km/h, and the CP-less filtered chain wins on spectral
efficiency once its guard-band advantage and unit air-time efficiency count.
"""

import numpy as np

from ddmod.harness import config_from_dict, run_sweep

raw = {
    "k": "32", "n": "8", "o_s": "4", "b": "4", "filter_len": "16",
    "waveforms": "otfs, drufmc, ofdm-full, ofdm-onetap",
    "snr_db": "0, 10, 20, 30",
    "speeds_kmh": "50, 500",
    "trials": "5",
    "seed": "42",
    "n_guard_otfs": "8", "n_guard_ofdm_full": "8",
    "n_guard_ofdm_onetap": "8", "n_guard_drufmc": "5",
}
cfg = config_from_dict(raw)
rows, failures = run_sweep(cfg)
assert not failures

print(f"{'waveform':12s} {'speed':>6s} " + " ".join(f"SNR {s:>4s}" for s in ("0", "10", "20", "30")))
print("net SINR (dB) / average SE (bit/s/Hz), mean over trials")
for wf in cfg.waveforms:
    for speed in cfg.speeds_kmh:
        cells = []
        for snr in cfg.snr_db:
            sel = [r for r in rows if r.waveform == wf and r.speed_kmh == speed and r.snr_db == snr]
            lin = np.mean([10 ** (r.net_sinr_db / 10) for r in sel])
            se = np.mean([r.avg_se_bps_hz for r in sel])
            cells.append(f"{10 * np.log10(lin):5.1f}/{se:4.2f}")
        print(f"{wf:12s} {speed:6.0f} " + " ".join(f"{c:>10s}" for c in cells))
