"""Path-sparse taps, the banded kernels and the per-path closed forms against dense oracles.

Random valid modem configurations (small even K, any N, O_s and CP length,
both pulses) meet random path sets whose delays fall inside and beyond the
CP.  The per-symbol taps composed from the stored path form must equal the
dense tensor to 4 eps of its peak (one rounding more than the oracle's
product), with every unstored column exactly zero, and the CP-less view of
a CP-bearing realization must equal a CP-less realization; the kernels and
the closed-form frequency-time and delay-domain blocks must match the dense
per-symbol matrices to 1e-12.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddmod import channel as ch
from ddmod import drufmc
from ddmod.config import ModemConfig, desk_config
from ddmod.drufmc import _delay_domain_blocks
from ddmod.ofdm import LinkChannel, _tx_null, per_symbol_ft_channel
from ddmod.transforms import ufmc_precoder

from oracles import dense_delay_domain_blocks, dense_ft_block, dense_materialize_taps, dense_taps

TOL = 1e-12
EPS = np.finfo(float).eps

# small shapes keep each example to a few milliseconds
examples = settings(max_examples=40, deadline=1000, derandomize=True, database=None)


@st.composite
def modem_and_paths(draw):
    k = draw(st.sampled_from([2, 4, 6, 8]))
    d = draw(st.sampled_from([x for x in range(1, k + 1) if k % x == 0]))
    o_s = draw(st.integers(1, 3))
    ko = k * o_s
    cfg = ModemConfig(
        k=k, n=draw(st.integers(1, 4)), o_s=o_s, b=k // d,
        filter_len=draw(st.integers(1, min(ko, 6))), filter_att_db=40.0,
        n_cp=draw(st.integers(0, min(ko, 6))),
        pulse=draw(st.sampled_from(["ideal", "rrc"])),
    )
    n_paths = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    delays = draw(st.lists(st.floats(0.0, cfg.n_cp + 8.0, allow_nan=False),
                           min_size=n_paths, max_size=n_paths))
    gains = [complex(draw(unit), draw(unit)) for _ in range(n_paths)]
    nu = [0.1 * cfg.delta_f_hz * draw(unit) for _ in range(n_paths)]
    paths = ch.PathSet(gains=np.array(gains), delays_s=np.sort(delays) * cfg.sample_period_s,
                       dopplers_hz=np.array(nu))
    return cfg, paths


def close(a, b):
    return np.abs(a - b).max() <= TOL * max(1.0, np.abs(b).max())


@examples
@given(modem_and_paths(), st.booleans())
def test_stored_taps_are_the_dense_columns(case, with_cp):
    cfg, paths = case
    real = ch.realize(paths, cfg, with_cp=with_cp)
    dense = dense_materialize_taps(paths, cfg, rows=real.taps.shape[0])
    # a per-symbol tap is the product of its two stored factors: one rounding more
    assert np.abs(dense_taps(real) - dense).max() <= 4 * EPS * np.abs(dense).max()
    inactive = np.setdiff1d(np.arange(real.l_ch), real.tap_index)
    assert not dense[:, :, inactive].any()


@examples
@given(modem_and_paths(), st.booleans(), st.integers(0, 2**32 - 1))
def test_apply_matches_dense_matrices(case, with_cp, seed):
    cfg, paths = case
    chan = ch.realize(paths, cfg, with_cp=with_cp)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((chan.cols, cfg.n)) + 1j * rng.standard_normal((chan.cols, cfg.n))
    expect = np.stack([chan.matrix(i) @ x[:, i] for i in range(cfg.n)], axis=1)
    assert close(chan.apply(x), expect)


@examples
@given(modem_and_paths())
def test_ft_blocks_match_cp_core(case):
    cfg, paths = case
    chan = ch.realize(paths, cfg, with_cp=True)
    blocks = per_symbol_ft_channel(chan, cfg)
    assert blocks.shape == (cfg.n, cfg.k, cfg.k)
    for i in range(cfg.n):
        assert close(blocks[i], dense_ft_block(chan, cfg, i))


@examples
@given(modem_and_paths(), st.sampled_from(["accounting", "tx"]), st.data())
def test_delay_domain_blocks_match_dense(case, guard_nulling, data):
    cfg, paths = case
    cfg = dataclasses.replace(cfg, guard_nulling=guard_nulling,
                              n_guard=data.draw(st.integers(0, (cfg.k - 1) // 2)))
    chan = ch.realize(paths, cfg, with_cp=False)
    heads, x, r = _delay_domain_blocks(chan, cfg)
    tails = x @ r
    # every tail block keeps the numerical rank of the full precoder tail, at most L - 1
    assert x.shape[-1] == r.shape[0] == _full_tail_rank(cfg) <= cfg.filter_len - 1
    assert heads.shape == tails.shape == (cfg.n, cfg.k, cfg.k)
    for m in range(cfg.n):
        head, tail = dense_delay_domain_blocks(chan, cfg, m)
        assert close(heads[m], head)
        assert close(tails[m], tail)


def _full_tail(cfg):
    """R = fft(P_tail) at full rank: the TX-guard-nulled last L - 1 precoder rows."""
    return np.fft.fft(ufmc_precoder(cfg)[cfg.k * cfg.o_s:] * _tx_null(cfg), axis=-1)


def _full_tail_rank(cfg):
    r = _full_tail(cfg)
    return np.linalg.matrix_rank(r) if r.size else 0


@pytest.mark.parametrize("guard_nulling, n_guard, rank", [
    ("accounting", 0, 24), ("accounting", 30, 24), ("tx", 30, 20),
])
def test_table1_tail_is_cut_to_its_numerical_rank(monkeypatch, guard_nulling, n_guard, rank):
    # the Dolph-Chebyshev ramp of the 60-tap filter: 59 tail rows, far fewer singular values
    cfg = ModemConfig(guard_nulling=guard_nulling, n_guard=n_guard)
    chan = ch.realize(ch.sample_eva_paths(0, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=False)
    heads, x, r = _delay_domain_blocks(chan, cfg)
    assert x.shape == (cfg.n, cfg.k, rank) and r.shape == (rank, cfg.k)
    assert _full_tail_rank(cfg) == rank
    # the same blocks with the tail left at L - 1 columns
    full_r = _full_tail(cfg)
    monkeypatch.setattr(drufmc, "_precoder_tail",
                        lambda cfg: (full_r, np.eye(cfg.filter_len - 1), full_r))
    full_heads, full_x, _ = _delay_domain_blocks(chan, cfg)
    assert full_x.shape[-1] == cfg.filter_len - 1
    assert np.array_equal(heads, full_heads)
    full = full_x @ full_r
    assert np.linalg.norm(x @ r - full) <= 1e-13 * np.linalg.norm(full)


@pytest.mark.parametrize("pulse", ["ideal", "rrc"])
def test_closed_forms_at_table1_shape(pulse):
    # 4 of the 9 EVA paths outlast the 586 ns CP; the 60-tap filter leaves a 59-row transient
    cfg = ModemConfig(pulse=pulse)
    paths = ch.sample_eva_paths(0, 500 / 3.6, cfg.f_c_hz)
    assert np.sum(paths.delays_s > cfg.n_cp * cfg.sample_period_s) == 4 and cfg.filter_len - 1 == 59
    cp_set = ch.realize(paths, cfg, with_cp=True)
    cpless = ch.channel_matrices(cp_set, cfg, with_cp=False)
    ft = per_symbol_ft_channel(cp_set, cfg)
    heads, x, r = _delay_domain_blocks(cpless, cfg)
    tails = x @ r
    for i in (0, cfg.n - 1):
        assert close(ft[i], dense_ft_block(cp_set, cfg, i))
        head, tail = dense_delay_domain_blocks(cpless, cfg, i)
        assert close(heads[i], head)
        assert close(tails[i], tail)


def test_closed_forms_refuse_a_mismatched_channel_set():
    cfg = desk_config()
    paths = ch.sample_eva_paths(4, 500 / 3.6, cfg.f_c_hz)
    with pytest.raises(ValueError, match="dimension mismatch"):
        per_symbol_ft_channel(ch.realize(paths, cfg, with_cp=False), cfg)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _delay_domain_blocks(ch.realize(paths, cfg, with_cp=True), cfg)


def test_header_only_dump_gives_all_zero_blocks():
    # a channel that stores no tap columns
    cfg = desk_config()
    ko = cfg.k * cfg.o_s
    empty = ch.ChannelMatrixSet(taps=np.zeros((ko + cfg.n_cp + 2, 0), dtype=complex),
                                phase=np.zeros((cfg.n, 0), dtype=complex),
                                tap_index=np.zeros(0, dtype=int), l_ch=3, cols=ko + cfg.n_cp)
    assert empty.tap_index.size == 0
    ft = per_symbol_ft_channel(empty, cfg)
    heads, x, r = _delay_domain_blocks(dataclasses.replace(empty, cols=ko), cfg)
    tails = x @ r
    for blocks in (ft, heads, tails):
        assert blocks.shape == (cfg.n, cfg.k, cfg.k) and not blocks.any()


def test_storage_does_not_grow_with_n():
    # each path's window is stored once; the symbols differ only by one phase per entry
    cfg = desk_config(pulse="rrc")
    paths = ch.sample_eva_paths(4, 500 / 3.6, cfg.f_c_hz)
    one, many = (ch.realize(paths, dataclasses.replace(cfg, n=n), with_cp=True) for n in (1, 16))
    assert one.taps.nbytes == many.taps.nbytes
    assert many.phase.shape == (16, many.tap_index.size) and one.phase.shape[0] == 1


def _set(taps_shape, phase_shape, n_entries):
    return ch.ChannelMatrixSet(taps=np.zeros(taps_shape, dtype=complex),
                               phase=np.ones(phase_shape, dtype=complex),
                               tap_index=np.zeros(n_entries, dtype=int), l_ch=1, cols=4)


@pytest.mark.parametrize("phase_shape", [(3,), (2, 3, 1)])
def test_set_refuses_a_phase_that_is_not_2d(phase_shape):
    with pytest.raises(ValueError, match="dimension mismatch"):
        _set((4, 3), phase_shape, 3)


@pytest.mark.parametrize("taps_shape, phase_shape, n_entries", [
    ((4, 2), (2, 3), 3), ((4, 3), (2, 2), 3), ((4, 3), (2, 3), 2),
])
def test_set_refuses_entry_counts_that_disagree(taps_shape, phase_shape, n_entries):
    _set((4, n_entries), (2, n_entries), n_entries)           # agreeing counts are a valid set
    with pytest.raises(ValueError, match="dimension mismatch"):
        _set(taps_shape, phase_shape, n_entries)


@examples
@given(modem_and_paths())
@example((desk_config(n_cp=0, filter_len=1), ch.ideal_path()))     # N_CP = 0, L = L_ch = 1
def test_cpless_view_equals_a_cpless_realization(case):
    # every link reads the CP-less channel as a view of the CP-bearing realization
    cfg, paths = case
    view = LinkChannel(paths, cfg).channel(with_cp=False)
    real = ch.realize(paths, cfg, with_cp=False)
    assert (view.cols, view.l_ch) == (real.cols, real.l_ch)
    for i in range(cfg.n):
        assert np.array_equal(view.matrix(i), real.matrix(i))
