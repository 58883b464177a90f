"""The block channel model against the received frame built with no block split.

``oracles.whole_frame_receive`` convolves the whole serialized frame with
each path's taps at once.  The block model convolves each block alone and
drops its channel tail, so the two agree wherever no tap reaches from one
block into the next one's kept samples: one symbol, Doppler included; the
CP chains at nu = 0 with every tap column inside the CP; DR-UFMC on the ideal
single-path channel.  Frame-continuous Doppler across symbols is not the
block model's yet, so nu != 0 over several symbols is not compared here.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import channel as ch
from ddmod.config import ModemConfig
from ddmod.drufmc import drufmc_demodulate, drufmc_modulate
from ddmod.metrics import qpsk_grid
from ddmod.ofdm import apply_channel, ofdm_demodulate, ofdm_modulate
from ddmod.otfs import otfs_demodulate, otfs_modulate

from oracles import whole_frame_receive

TOL = 1e-12

examples = settings(max_examples=40, deadline=1000, derandomize=True, database=None)
unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def modem(draw, pulse):
    k = draw(st.sampled_from([2, 4, 6, 8]))
    d = draw(st.sampled_from([x for x in range(1, k + 1) if k % x == 0]))
    o_s = draw(st.integers(2, 3))
    ko = k * o_s
    half = 0 if pulse == "ideal" else ch.RRC_HALF_SPAN
    return ModemConfig(
        k=k, n=draw(st.integers(1, 4)), o_s=o_s, b=k // d,
        filter_len=draw(st.integers(1, min(ko, 6))), filter_att_db=40.0,
        n_cp=draw(st.integers(half, min(ko, half + 6))), pulse=pulse,
    )


@st.composite
def paths_within(draw, cfg, max_delay, doppler):
    """1-4 paths with delays in [0, max_delay] samples and Dopplers up to 0.1 dF if ``doppler``."""
    n_paths = draw(st.integers(1, 4))
    delays = draw(st.lists(st.floats(0.0, max_delay, allow_nan=False),
                           min_size=n_paths, max_size=n_paths))
    nu = [0.1 * cfg.delta_f_hz * draw(unit) if doppler else 0.0 for _ in range(n_paths)]
    return ch.PathSet(gains=np.array([complex(draw(unit), draw(unit)) for _ in range(n_paths)]),
                      delays_s=np.sort(delays) * cfg.sample_period_s, dopplers_hz=np.array(nu))


def close(a, b):
    return np.abs(a - b).max() <= TOL * max(1.0, np.abs(b).max())


def grid(cfg, seed):
    return qpsk_grid(np.random.default_rng(seed), cfg.k, cfg.n)


@examples
@given(st.sampled_from(["ideal", "rrc"]), st.booleans(), st.data())
def test_one_symbol_is_the_whole_frame(pulse, with_cp, data):
    # one block is the whole frame, Doppler and channel tail included
    cfg = dataclasses.replace(data.draw(modem(pulse)), n=1)
    paths = data.draw(paths_within(cfg, cfg.n_cp + 8.0, doppler=True))
    chan = ch.realize(paths, cfg, with_cp=with_cp)
    s = np.random.default_rng(0).standard_normal(chan.cols) + 0j
    assert close(apply_channel(s, chan, 0.0), whole_frame_receive(s, paths, cfg))


@examples
@given(st.sampled_from(["ideal", "rrc"]), st.data())
def test_cp_chains_equal_the_whole_frame_inside_the_cp(pulse, data):
    # nu = 0 and every tap column within the CP: the previous block's tail lands in the CP
    cfg = data.draw(modem(pulse))
    half = 0 if pulse == "ideal" else ch.RRC_HALF_SPAN
    paths = data.draw(paths_within(cfg, float(cfg.n_cp - half), doppler=False))
    chan = ch.realize(paths, cfg, with_cp=True)
    assert chan.l_ch - 1 <= cfg.n_cp
    x = grid(cfg, data.draw(st.integers(0, 2**32 - 1)))
    for modulate, demodulate in ((ofdm_modulate, ofdm_demodulate),
                                 (otfs_modulate, otfs_demodulate)):
        s = modulate(x, cfg)
        frame = whole_frame_receive(s, paths, cfg)[:s.size]
        assert close(demodulate(apply_channel(s, chan, 0.0), cfg), demodulate(frame, cfg))


@examples
@given(modem("ideal"), unit, unit, st.integers(0, 2**32 - 1))
def test_drufmc_equals_the_whole_frame_on_the_ideal_path(cfg, re, im, seed):
    paths = ch.ideal_path(complex(re, im))
    s = drufmc_modulate(grid(cfg, seed), cfg)
    frame = whole_frame_receive(s, paths, cfg)[:s.size]
    block = apply_channel(s, ch.realize(paths, cfg, with_cp=False), 0.0)
    assert close(drufmc_demodulate(block, cfg), drufmc_demodulate(frame, cfg))
