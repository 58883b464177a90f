"""Delay-Doppler multicarrier waveform simulation library.

Implements a filtered CP-less delay-Doppler transceiver alongside OTFS and
two OFDM baselines (full multicarrier-multisymbol MMSE and one-tap FDE) over
seeded EVA/Jakes linear time-varying channels, with MMSE SINR, spectral
efficiency, PSD and guard-band analysis, and a deterministic sweep harness.
"""

from .channel import (
    ChannelMatrixSet,
    PathSet,
    channel_matrices,
    ideal_path,
    materialize_taps,
    max_doppler_hz,
    realize,
    sample_eva_paths,
)
from .config import ConfigError, ModemConfig, desk_config
from .drufmc import drufmc_demodulate, drufmc_modulate, ufmc_modulate_ft
from .harness import ExperimentConfig, ResultRow, load_config, run_psd, run_sweep
from .metrics import (
    GuardSearchError,
    IllConditionedError,
    PsdEstimate,
    avg_spectral_efficiency,
    guard_count_for_threshold,
    net_sinr,
    normalized_mse,
    oob_level_db,
    psd_estimate,
    qpsk_grid,
)
from .ofdm import (
    apply_channel,
    ofdm_demodulate,
    ofdm_modulate,
    ofdm_onetap_fde,
    ofdm_onetap_sinr,
)
from .otfs import otfs_demodulate, otfs_modulate
from .transforms import (
    chebyshev_window,
    dft_matrix,
    isfft,
    oversampled_dft,
    sfft,
    ufmc_precoder,
)

__version__ = "0.1.0"
