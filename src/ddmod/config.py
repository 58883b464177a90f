"""Waveform configuration shared by every modulation chain."""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """A configuration value violates one of the modem invariants."""


#: Default cyclic-prefix duration in seconds (converted to samples per config).
DEFAULT_T_CP_S = 0.586e-6


def check_guard_count(n_guard: int, k: int) -> None:
    """Refuse a per-edge guard count outside 0 <= 2*N_G < K."""
    if not 0 <= 2 * n_guard < k:
        raise ConfigError(f"invalid guard count: need 0 <= 2*N_G < K={k}, got N_G={n_guard}")


def cp_samples(t_cp_s: float, k: int, delta_f_hz: float, o_s: int) -> int:
    """Cyclic-prefix length in oversampled samples for a CP of duration ``t_cp_s``."""
    return int(round(t_cp_s * k * delta_f_hz * o_s))


@dataclass(frozen=True)
class ModemConfig:
    """Scalar parameters of a delay-Doppler multicarrier waveform.

    Defaults are the reference simulation setup: 128 subcarriers spaced
    120 kHz, 16 symbols, 10x oversampling, 8 subbands of 16 subcarriers
    filtered by a length-60, 100 dB Dolph-Chebyshev prototype.
    """

    k: int = 128                  # subcarriers (delay bins), must be even
    n: int = 16                   # symbols (Doppler bins)
    o_s: int = 10                 # oversampling factor
    b: int = 8                    # subband count
    d: int = 16                   # subcarriers per subband
    filter_len: int = 60          # prototype filter taps (L)
    filter_att_db: float = 100.0  # prototype side-lobe attenuation
    n_cp: int | None = None       # CP samples; None derives from DEFAULT_T_CP_S
    delta_f_hz: float = 120e3     # subcarrier spacing
    f_c_hz: float = 28e9          # carrier frequency
    p_t: float = 1.0              # transmit power (linear)
    n_guard: int = 0              # nulled edge subcarriers per band edge
    delta_oob_db: float = -30.0   # out-of-band emission threshold
    pulse: str = "ideal"          # channel shaping pulse: "ideal" or "rrc"
    guard_nulling: str = "accounting"  # "accounting" or "tx"
    onetap: str = "mmse"          # one-tap FDE scalar: "mmse" or "zf"

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ConfigError(f"K must be even and >= 2, got {self.k}")
        if self.n < 1:
            raise ConfigError(f"N must be >= 1, got {self.n}")
        if self.o_s < 1:
            raise ConfigError(f"O_s must be >= 1, got {self.o_s}")
        if self.b < 1 or self.d < 1 or self.b * self.d != self.k:
            raise ConfigError(
                f"K = B*D violated: K={self.k}, B={self.b}, D={self.d}"
            )
        if self.filter_len < 1:
            raise ConfigError(f"filter length must be >= 1, got {self.filter_len}")
        if self.filter_len - 1 >= self.k * self.o_s:
            raise ConfigError(
                f"filter length {self.filter_len} exceeds symbol span {self.k * self.o_s}"
            )
        if self.filter_att_db <= 0:
            raise ConfigError(f"filter attenuation must be > 0 dB, got {self.filter_att_db}")
        if self.n_cp is None:
            object.__setattr__(
                self, "n_cp", cp_samples(DEFAULT_T_CP_S, self.k, self.delta_f_hz, self.o_s)
            )
        if self.n_cp < 0:
            raise ConfigError(f"N_CP must be >= 0, got {self.n_cp}")
        if self.p_t <= 0:
            raise ConfigError(f"P_T must be > 0, got {self.p_t}")
        check_guard_count(self.n_guard, self.k)
        if self.pulse not in ("ideal", "rrc"):
            raise ConfigError(f"pulse must be 'ideal' or 'rrc', got {self.pulse!r}")
        if self.guard_nulling not in ("accounting", "tx"):
            raise ConfigError(f"guard_nulling must be 'accounting' or 'tx', got {self.guard_nulling!r}")
        if self.onetap not in ("mmse", "zf"):
            raise ConfigError(f"onetap must be 'mmse' or 'zf', got {self.onetap!r}")

    # Derived quantities ---------------------------------------------------

    @property
    def sample_rate_hz(self) -> float:
        """Oversampled rate K * delta_f * O_s."""
        return self.k * self.delta_f_hz * self.o_s

    @property
    def sample_period_s(self) -> float:
        """Oversampled sample period."""
        return 1.0 / self.sample_rate_hz

    @property
    def symbol_duration_s(self) -> float:
        """Useful symbol interval 1 / delta_f."""
        return 1.0 / self.delta_f_hz

    @property
    def cp_duration_s(self) -> float:
        return self.n_cp * self.sample_period_s

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


def table1_config(**overrides) -> ModemConfig:
    """Full-scale reference configuration."""
    return ModemConfig(**overrides)


def desk_config(**overrides) -> ModemConfig:
    """Small configuration for tests and CI: K=32, N=8, O_s=4, B=4, D=8, L=16."""
    base = dict(k=32, n=8, o_s=4, b=4, d=8, filter_len=16)
    base.update(overrides)
    return ModemConfig(**base)
