"""Path-sparse taps and the banded kernels against their dense oracles.

Random valid modem configurations (small even K, any N, O_s and CP length,
both pulses) meet random path sets whose delays fall inside and beyond the
CP.  Stored taps must equal the dense tensor's columns exactly; the kernels
must match the dense per-symbol matrices to 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import channel as ch
from ddmod.config import ModemConfig, desk_config, table1_config
from ddmod.ofdm import per_symbol_ft_channel
from ddmod.transforms import dft_matrix, oversampled_dft

from oracles import dense_ft_block, dense_materialize_taps, export_dense_v1

TOL = 1e-12

# small shapes keep each example to a few milliseconds
examples = settings(max_examples=40, deadline=1000, derandomize=True, database=None)


@st.composite
def modem_and_paths(draw):
    k = draw(st.sampled_from([2, 4, 6, 8]))
    d = draw(st.sampled_from([x for x in range(1, k + 1) if k % x == 0]))
    o_s = draw(st.integers(1, 3))
    ko = k * o_s
    cfg = ModemConfig(
        k=k, n=draw(st.integers(1, 4)), o_s=o_s, b=k // d, d=d,
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
    real = ch.realize(paths, cfg, with_cp=with_cp).realization
    dense = dense_materialize_taps(paths, cfg, rows=real.rows)
    assert np.array_equal(real.taps, dense[:, :, real.tap_index])
    assert np.array_equal(real.dense_taps(), dense)
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
@given(modem_and_paths(), st.integers(0, 2**32 - 1))
def test_left_multiply_matches_dense(case, seed):
    cfg, paths = case
    ko = cfg.k * cfg.o_s
    # DR-UFMC's delay-domain map F_K^H W (R_tail M_m) on the CP-less set
    chan = ch.realize(paths, cfg, with_cp=False)
    fkh_w = dft_matrix(cfg.k).conj().T @ oversampled_dft(cfg.k, cfg.o_s)
    stack = chan.left_multiply(fkh_w, 0)
    for m in range(cfg.n):
        assert close(stack[m], fkh_w @ chan.matrix(m)[:ko, :])
    # any row window of the CP-bearing set
    chan = ch.realize(paths, cfg, with_cp=True)
    rng = np.random.default_rng(seed)
    row0 = int(rng.integers(0, chan.rows))
    nrows = int(rng.integers(1, chan.rows - row0 + 1))
    w = rng.standard_normal((3, nrows)) + 1j * rng.standard_normal((3, nrows))
    stack = chan.left_multiply(w, row0)
    for m in range(cfg.n):
        assert close(stack[m], w @ chan.matrix(m)[row0:row0 + nrows, :])


def test_left_multiply_column_chunks_are_exact(monkeypatch):
    cfg = desk_config(pulse="rrc")
    chan = ch.realize(ch.sample_eva_paths(4, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
    w = oversampled_dft(cfg.k, cfg.o_s)
    whole = chan.left_multiply(w, cfg.n_cp)
    monkeypatch.setattr(ch, "LEFT_MULTIPLY_CHUNK_BYTES", 1)     # one column per chunk
    assert np.array_equal(chan.left_multiply(w, cfg.n_cp), whole)
    # a dump with a header and no tap lines stores no columns: an all-zero product
    empty = ch.parse_taps("# ltv-taps v2\n# symbols=2 rows=12 l_ch=3 sample_period_s=1e-06\n")
    assert empty.tap_index.size == 0
    stack = ch.ChannelMatrixSet(realization=empty, cols=10).left_multiply(w[:, :12], 0)
    assert stack.shape == (2, cfg.k, 10) and not stack.any()


def test_left_multiply_budget_keeps_sweep_shapes_in_one_chunk():
    # the desk cases and the full-scale ideal pulse gather under the budget
    for cfg in (desk_config(pulse="rrc"), table1_config()):
        chan = ch.realize(ch.sample_eva_paths(0, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
        gathered = 16 * chan.cols * chan.realization.tap_index.size * cfg.k
        assert gathered <= ch.LEFT_MULTIPLY_CHUNK_BYTES


class TestTapText:
    def realization(self):
        cfg = ModemConfig(k=8, n=2, o_s=2, b=2, d=4, filter_len=3, pulse="rrc")
        ts = cfg.sample_period_s
        paths = ch.PathSet(gains=np.array([0.8 + 0.1j, 0.3 - 0.4j]),
                           delays_s=np.array([0.4, 13.7]) * ts,
                           dopplers_hz=np.array([2e3, -5e3]))
        return cfg, paths, ch.materialize_taps(paths, cfg, rows=30)

    def test_export_writes_only_stored_columns(self):
        _, _, real = self.realization()
        lines = [ln for ln in ch.export_taps(real).splitlines() if not ln.startswith("#")]
        assert real.tap_index.size < real.l_ch
        assert len(lines) == real.n_symbols * real.tap_index.size
        assert {int(ln.split()[1]) - 1 for ln in lines} == set(real.tap_index.tolist())
        back = ch.parse_taps(ch.export_taps(real))
        assert np.array_equal(back.tap_index, real.tap_index)
        assert np.array_equal(back.taps, real.taps)

    def test_reads_dense_v1_dump(self):
        cfg, paths, real = self.realization()
        dense = dense_materialize_taps(paths, cfg, rows=real.rows)
        back = ch.parse_taps(export_dense_v1(dense, real.sample_period_s))
        assert back.l_ch == real.l_ch
        assert np.array_equal(back.tap_index, np.arange(real.l_ch))
        assert np.array_equal(back.dense_taps(), real.dense_taps())
