"""Delay-Doppler multicarrier waveform simulation library.

Implements a filtered CP-less delay-Doppler transceiver alongside OTFS and
two OFDM baselines (full multicarrier-multisymbol MMSE and one-tap FDE) over
seeded EVA/Jakes linear time-varying channels, with MMSE SINR, spectral
efficiency, PSD and guard-band analysis, and a deterministic sweep harness.

The names in ``__all__`` and the submodules are loaded on first use, so
``import ddmod`` loads no numpy: the command line (``ddmod.__main__``) sets
numpy's BLAS threads before numpy starts.
"""

import importlib

#: Submodule -> the public names it serves as ``ddmod.<name>``.
_EXPORTS = {
    "channel": ("ChannelMatrixSet", "PathSet", "channel_matrices", "ideal_path",
                "materialize_taps", "max_doppler_hz", "realize", "sample_eva_paths"),
    "config": ("ConfigError", "ModemConfig", "desk_config"),
    "drufmc": ("drufmc_demodulate", "drufmc_modulate", "ufmc_modulate_ft"),
    "harness": ("ExperimentConfig", "ResultRow", "load_config", "run_psd", "run_sweep"),
    "metrics": ("GuardSearchError", "IllConditionedError", "PsdEstimate",
                "avg_spectral_efficiency", "guard_count_for_threshold", "net_sinr",
                "normalized_mse", "oob_level_db", "psd_estimate", "qpsk_grid"),
    "ofdm": ("apply_channel", "ofdm_demodulate", "ofdm_modulate", "ofdm_onetap_fde",
             "ofdm_onetap_sinr"),
    "otfs": ("otfs_demodulate", "otfs_modulate"),
    "transforms": ("chebyshev_window", "dft_matrix", "isfft", "sfft"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "mmse"}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    # looked up on every access, not cached here, so a function rebound in its
    # module (a test's monkeypatch, a tracer) is what ddmod.<name> returns
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
