"""Waveform configuration shared by every modulation chain."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar


class ConfigError(ValueError):
    """A configuration value violates one of the modem invariants."""


#: Default cyclic-prefix duration in seconds (converted to samples per config).
DEFAULT_T_CP_S = 0.586e-6

#: Variables through which a user chooses BLAS threads; if one is set, BLAS is left alone.
#: This module loads no numpy, so the command line reads them before numpy starts OpenBLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def live_rows(k: int, n_guard: int) -> slice:
    """Rows [N_G, K - N_G) of a K-row grid, all but the 2*N_G edge ones; needs 0 <= 2*N_G < K."""
    if not 0 <= 2 * n_guard < k:
        raise ConfigError(f"invalid guard count: need 0 <= 2*N_G < K={k}, got N_G={n_guard}")
    return slice(n_guard, k - n_guard)


@dataclass(frozen=True)
class ModemConfig:
    """Scalar parameters of a delay-Doppler multicarrier waveform.

    Defaults are the reference simulation setup: 128 subcarriers spaced
    120 kHz, 16 symbols, 10x oversampling, 8 subbands of 16 subcarriers
    filtered by a length-60, 100 dB Dolph-Chebyshev prototype.  The subband
    width D = K/B is derived; :meth:`__post_init__` states the value rules.
    The subcarrier spacing and the 28 GHz carrier are class constants, not
    fields: the carrier only scales the Doppler, which the speed axis sweeps.
    """

    k: int = 128                  # subcarriers (delay bins), must be even
    n: int = 16                   # symbols (Doppler bins)
    o_s: int = 10                 # oversampling factor
    b: int = 8                    # subband count; D = K/B subcarriers each
    filter_len: int = 60          # prototype filter taps (L)
    filter_att_db: float = 100.0  # prototype side-lobe attenuation
    n_cp: int | None = None       # CP samples; None derives from DEFAULT_T_CP_S
    n_guard: int = 0              # nulled edge subcarriers per band edge
    delta_oob_db: float = -30.0   # out-of-band emission threshold
    pulse: str = "ideal"          # channel shaping pulse: "ideal" or "rrc"
    guard_nulling: str = "accounting"  # "accounting" or "tx"

    delta_f_hz: ClassVar[float] = 120e3  # subcarrier spacing, a model constant
    f_c_hz: ClassVar[float] = 28e9       # carrier frequency, a model constant

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ConfigError(f"K must be even and >= 2, got {self.k}")
        if self.n < 1:
            raise ConfigError(f"N must be >= 1, got {self.n}")
        if self.o_s < 1:
            raise ConfigError(f"O_s must be >= 1, got {self.o_s}")
        if self.b < 1 or self.k % self.b != 0:
            raise ConfigError(f"K = B*D violated: B={self.b} does not divide K={self.k}")
        if self.filter_len < 1:
            raise ConfigError(f"filter length must be >= 1, got {self.filter_len}")
        if self.filter_len - 1 >= self.k * self.o_s:
            raise ConfigError(
                f"filter length {self.filter_len} exceeds symbol span {self.k * self.o_s}"
            )
        if not (math.isfinite(self.filter_att_db) and self.filter_att_db > 0):
            raise ConfigError(f"filter_att_db must be finite and > 0, got {self.filter_att_db}")
        if self.filter_att_db / 20.0 >= math.log10(sys.float_info.max):
            raise ConfigError(f"filter_att_db = {self.filter_att_db} overflows 10^(att/20)")
        if not math.isfinite(self.delta_oob_db):
            raise ConfigError(f"delta_oob_db must be finite, got {self.delta_oob_db}")
        if self.n_cp is None:
            n_cp = int(round(DEFAULT_T_CP_S * self.k * self.delta_f_hz * self.o_s))
            object.__setattr__(self, "n_cp", n_cp)
        if not 0 <= self.n_cp <= self.k * self.o_s:
            raise ConfigError(f"N_CP must be in [0, K*O_s = {self.k * self.o_s}], got {self.n_cp}")
        live_rows(self.k, self.n_guard)
        if self.pulse not in ("ideal", "rrc"):
            raise ConfigError(f"pulse must be 'ideal' or 'rrc', got {self.pulse!r}")
        if self.guard_nulling not in ("accounting", "tx"):
            raise ConfigError(f"guard_nulling must be 'accounting' or 'tx', got {self.guard_nulling!r}")

    # Derived quantities ---------------------------------------------------

    @property
    def d(self) -> int:
        """Subcarriers per subband, D = K/B."""
        return self.k // self.b

    @property
    def sample_rate_hz(self) -> float:
        """Oversampled rate K * delta_f * O_s."""
        return self.k * self.delta_f_hz * self.o_s

    @property
    def sample_period_s(self) -> float:
        """Oversampled sample period."""
        return 1.0 / self.sample_rate_hz

    @property
    def block_len(self) -> int:
        """Samples per transmitted symbol including CP."""
        return self.k * self.o_s + self.n_cp

    @property
    def bandwidth_hz(self) -> float:
        """Nominal occupied bandwidth K * delta_f."""
        return self.k * self.delta_f_hz

    def cp_efficiency(self) -> float:
        """Air-time efficiency T / (T + T_CP) of a CP-bearing modulation."""
        ko = self.k * self.o_s
        return ko / (ko + self.n_cp)


def desk_config(**overrides) -> ModemConfig:
    """Small configuration for tests and CI: K=32, N=8, O_s=4, B=4 (D=8), L=16."""
    base = dict(k=32, n=8, o_s=4, b=4, filter_len=16)
    base.update(overrides)
    return ModemConfig(**base)
