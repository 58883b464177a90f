"""The FFT transmitters and receivers against their dense constructions.

Each modulator takes one K*O_s-point inverse FFT per symbol (DR-UFMC's
plus the (L - 1) x K tail correction) and each receiver one K*O_s-point FFT
per kept window.  On random valid configurations, guard counts and frame
stacks, and on both presets, they must match the dense routes of
``oracles.py`` to 1e-12 of the signal's peak.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import drufmc, ofdm
from ddmod.config import ModemConfig, desk_config
from ddmod.transforms import sfft

from oracles import crandn, dense_demodulate, dense_ofdm_modulate, dense_ufmc_modulate_ft

TOL = 1e-12

examples = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= TOL * np.abs(ref).max()


@st.composite
def cases(draw):
    k = draw(st.integers(1, 32)) * 2
    o_s = draw(st.integers(1, 6))
    ko = k * o_s
    cfg = ModemConfig(
        k=k, n=draw(st.integers(1, 4)), o_s=o_s,
        b=draw(st.sampled_from([b for b in range(1, k + 1) if k % b == 0])),
        filter_len=draw(st.integers(1, ko)), filter_att_db=draw(st.sampled_from([40.0, 100.0])),
        n_cp=draw(st.integers(0, ko)),
    )
    n_guard, frames = draw(st.integers(0, k // 2 - 1)), draw(st.integers(1, 3))
    return cfg, n_guard, frames, draw(st.integers(0, 2**32 - 1))


def check_transceiver(cfg, n_guard, frames, seed):
    rng = np.random.default_rng(seed)
    x_ft = crandn(rng, frames, cfg.k, cfg.n)
    close(ofdm.ofdm_modulate(x_ft, cfg, n_guard), dense_ofdm_modulate(x_ft, cfg, n_guard))
    close(drufmc.ufmc_modulate_ft(x_ft, cfg, n_guard), dense_ufmc_modulate_ft(x_ft, cfg, n_guard))
    # received blocks carry a channel tail after the kept window
    tail = int(rng.integers(0, 4))
    r_cp = crandn(rng, cfg.n * (cfg.block_len + tail))
    close(ofdm.ofdm_demodulate(r_cp, cfg), dense_demodulate(r_cp, cfg, cfg.n_cp))
    r = crandn(rng, cfg.n * (cfg.k * cfg.o_s + tail))
    close(drufmc.drufmc_demodulate(r, cfg), sfft(dense_demodulate(r, cfg, 0)))


@examples
@given(cases())
def test_fft_routes_match_dense_routes(case):
    check_transceiver(*case)


@pytest.mark.parametrize("cfg", [desk_config(), ModemConfig()], ids=["desk", "table1"])
@pytest.mark.parametrize("n_guard", [0, 5, "max"])
def test_fft_routes_match_dense_routes_on_presets(cfg, n_guard):
    check_transceiver(cfg, cfg.k // 2 - 1 if n_guard == "max" else n_guard, 2, 7)

