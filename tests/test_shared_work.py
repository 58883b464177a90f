"""Work shared across the cells of a sweep point and across a PSD family's guard counts.

A grid point's waveforms share one ``ofdm.LinkChannel`` (``harness.grid_point``),
which materializes one channel, one frequency-time stack and one MMSE factor
per TX null for all of them, and the guard searches of both PSD families
modulate one read-only stack of seeded frames per run (``harness.psd_frames``,
``harness.psd_signal``).  Both must give exactly what a
fresh channel per cell and the per-frame transmitter give
(``tests/oracles.py``), and a failure must stay in the cells it belongs to.
"""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import channel as ch
from ddmod import drufmc, harness, ofdm, otfs, transforms
from ddmod.config import ModemConfig, desk_config
from ddmod.harness import WAVEFORMS, ExperimentConfig, evaluate_point, grid_point, psd_frames
from ddmod.harness import psd_signal, run_psd, run_sweep
from ddmod.metrics import psd_estimate

from oracles import clear_memos, fence_dense_references, per_cell_row, per_frame_signal

examples = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def sweep_configs(draw):
    k = draw(st.sampled_from([4, 8, 16]))
    d = draw(st.sampled_from([x for x in range(1, k + 1) if k % x == 0]))
    o_s = draw(st.integers(1, 4))
    ko = k * o_s
    modem = ModemConfig(
        k=k, n=draw(st.integers(1, 6)), o_s=o_s, b=k // d,
        filter_len=draw(st.integers(1, min(ko, 8))), filter_att_db=40.0,
        n_cp=draw(st.one_of(st.just(0), st.integers(1, ko))),
        n_guard=draw(st.integers(0, k // 2 - 1)),
        guard_nulling=draw(st.sampled_from(["tx", "accounting"])),
        pulse=draw(st.sampled_from(["ideal", "rrc"])),
    )
    return ExperimentConfig(
        modem=modem,
        snr_db=(draw(st.sampled_from([0.0, 15.0, 30.0])),),
        speeds_kmh=(draw(st.sampled_from([0.0, 50.0, 500.0])),),
        trials=1,
        seed=draw(st.integers(0, 2**16)),
    )


def outcome(fn, *args):
    """repr of a cell's row (exact floats, NaN equal to NaN), or its exception."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # an ill-conditioned cell must fail the same way
        return f"{type(exc).__name__}: {exc}"


@examples
@given(cfg=sweep_configs())
def test_shared_point_equals_a_fresh_realization_per_cell(cfg):
    speed = cfg.speeds_kmh[0]
    point = grid_point(cfg, speed, 0, 0)
    for wf in WAVEFORMS:
        shared = outcome(evaluate_point, cfg, wf, speed, 0, 0, point)
        assert shared == outcome(per_cell_row, cfg, wf, speed, 0, 0), wf


def desk_sweep(trials=1):
    return ExperimentConfig(modem=desk_config(pulse="rrc"), speeds_kmh=(500.0,),
                            snr_db=(10.0, 20.0), trials=trials, seed=4)


def test_each_point_realizes_and_builds_its_stack_once(monkeypatch):
    monkeypatch.setenv("DDMOD_THREADS", "1")    # counted in this process
    calls = {"realize": 0, "ft": 0}
    realize, stack = ch.realize, ofdm.per_symbol_ft_channel

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ch, "realize", counted("realize", realize))
    monkeypatch.setattr(ofdm, "per_symbol_ft_channel", counted("ft", stack))
    cfg = desk_sweep(trials=2)
    rows, failures = run_sweep(cfg)
    assert not failures and len(rows) == 4 * 2 * 2
    assert calls == {"realize": 2 * 2, "ft": 2 * 2}


@pytest.mark.parametrize("guard_nulling, overrides, factors", [
    ("accounting", {}, 1),
    ("accounting", {"otfs": 2, "ofdm-full": 5}, 1),   # nothing is nulled at the transmitter
    ("tx", {"otfs": 2, "ofdm-full": 2}, 1),
    ("tx", {"otfs": 2, "ofdm-full": 5}, 2),
])
def test_otfs_and_ofdm_full_share_one_factor_per_tx_null(monkeypatch, guard_nulling, overrides,
                                                         factors):
    monkeypatch.setenv("DDMOD_THREADS", "1")    # recorded in this process
    stacks, fts, detected = [], [], []
    factor, ft_stack = ofdm.per_symbol_factor, ofdm.per_symbol_ft_channel

    def counted(c, sigma2):             # one whole stack, however many chunks it is factored in
        stacks.append(c.shape)
        return factor(c, sigma2)

    def recorded(detect):
        def wrapper(c, *args, **kwargs):
            detected.append(c)          # kept alive, so the ids below are distinct objects
            return detect(c, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(ofdm, "per_symbol_factor", counted)
    monkeypatch.setattr(ofdm, "per_symbol_ft_channel",
                        lambda *args: fts.append(ft_stack(*args)) or fts[-1])
    for module in (ofdm, otfs):
        monkeypatch.setattr(module, "per_symbol_mmse", recorded(module.per_symbol_mmse))
    cfg = ExperimentConfig(modem=desk_config(guard_nulling=guard_nulling), speeds_kmh=(500.0,),
                           snr_db=(10.0,), trials=1, seed=4, n_guard_by_waveform=overrides)
    rows, failures = run_sweep(cfg)
    assert not failures and len(rows) == len(WAVEFORMS)
    assert len(stacks) == factors
    # OTFS and OFDM-full detect through one nulled stack per TX-guard count,
    # which under accounting is the frequency-time stack itself, not a copy
    assert len(fts) == 1 and len(detected) == 2
    assert len({id(c) for c in detected}) == factors
    assert all((c is fts[0]) == (guard_nulling == "accounting") for c in detected)


def test_table1_sweep_builds_no_dense_precoder_or_w(monkeypatch):
    monkeypatch.setenv("DDMOD_THREADS", "1")    # counted in this process

    clear_memos()
    fence_dense_references(monkeypatch)
    cfg = ExperimentConfig(modem=ModemConfig(), speeds_kmh=(500.0,), snr_db=(20.0, 30.0),
                           trials=1, seed=4)
    rows, failures = run_sweep(cfg)
    assert not failures and len(rows) == 2 * len(WAVEFORMS)
    ko, k = cfg.modem.k * cfg.modem.o_s, cfg.modem.k
    # every entry the memos hold, each read back without a build
    memos = {transforms.dft_matrix: (k, cfg.modem.n), drufmc._filter_response: (cfg.modem,),
             drufmc._precoder_tail: (cfg.modem,)}
    held = []
    for memo, keys in memos.items():
        built = memo.cache_info()
        assert built.currsize == len(keys)
        held += [a.shape for hit in map(memo, keys)
                 for a in (hit if isinstance(hit, tuple) else (hit,))]
        assert memo.cache_info().misses == built.misses
    # no memo holds W, W^H or the dense precoder
    assert not set(held) & {(k, ko), (ko, k), (ko + cfg.modem.filter_len - 1, k)}


def test_config_memos_are_shared_read_only_and_keyed_by_the_whole_config():
    cfg = desk_config()
    memos = (drufmc._filter_response, drufmc._precoder_tail)
    for arr in (transforms.dft_matrix(8), *(a for memo in memos for a in memo(cfg))):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    # equal configs built apart hit one entry, the same arrays
    assert transforms.dft_matrix(8) is transforms.dft_matrix(8)
    for memo in memos:
        assert memo(desk_config()) is memo(cfg)
        assert memo(desk_config(filter_att_db=100)) is memo(desk_config(filter_att_db=100.0))
    # under TX nulling the guard count shapes the tail; it is part of the key
    tx = desk_config(guard_nulling="tx", n_guard=2)
    r2, r3 = drufmc._precoder_tail(tx)[0], drufmc._precoder_tail(replace(tx, n_guard=3))[0]
    assert not np.array_equal(r2, r3)


def test_clear_memos_finds_and_empties_every_library_memo():
    memos = {transforms.dft_matrix, drufmc._filter_response, drufmc._precoder_tail}
    drufmc._precoder_tail(desk_config())          # fills _filter_response as well
    transforms.dft_matrix(8)
    assert memos <= clear_memos()
    assert all(memo.cache_info().currsize == 0 for memo in memos)


def test_raising_link_fails_only_its_own_cell(monkeypatch):
    cfg = desk_sweep()
    clean, _ = run_sweep(cfg)

    def exploding_link(*args, **kwargs):
        raise RuntimeError("link down")

    monkeypatch.setitem(harness.WAVEFORMS, "otfs", (True, exploding_link))
    rows, failures = run_sweep(cfg)
    assert [cell for cell, _ in failures] == [("otfs", 500.0, 0, 0), ("otfs", 500.0, 1, 0)]
    for _, tb in failures:
        assert "Traceback (most recent call last)" in tb
        assert "in exploding_link" in tb and "RuntimeError: link down" in tb
    assert rows == [r for r in clean if r.waveform != "otfs"]


def test_raising_link_fails_its_cell_under_a_forkserver_default(monkeypatch):
    # the pool forks wherever it can, so its workers see this process's patches
    # whatever the default start method (forkserver on Linux from Python 3.14)
    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no forkserver start method on this platform")
    monkeypatch.setenv("DDMOD_THREADS", "2")    # a pool, whatever the CPU count
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        test_raising_link_fails_only_its_own_cell(monkeypatch)
    finally:
        multiprocessing.set_start_method(default, force=True)


def test_raising_realization_fails_every_cell_of_its_point(monkeypatch):
    cfg = desk_sweep()
    clean, _ = run_sweep(cfg)
    target = harness._trial_paths(cfg, 500.0, 1, 0)
    realize = ch.realize

    def failing_realize(paths, *args, **kwargs):
        if np.array_equal(paths.gains, target.gains):
            raise RuntimeError("no taps for this point")
        return realize(paths, *args, **kwargs)

    monkeypatch.setattr(ch, "realize", failing_realize)
    rows, failures = run_sweep(cfg)
    assert [cell for cell, _ in failures] == [(wf, 500.0, 1, 0) for wf in cfg.waveforms]
    assert all("RuntimeError: no taps for this point" in tb for _, tb in failures)
    assert rows == [r for r in clean if r.snr_db == 10.0]


@pytest.mark.parametrize("family", ["otfs", "drufmc"])
@pytest.mark.parametrize("modem_kw, psd_trials, chunk_bytes", [
    ({}, 4, harness._PSD_CHUNK_BYTES),
    ({"n_cp": 0}, 4, harness._PSD_CHUNK_BYTES),
    ({"filter_len": 1}, 4, harness._PSD_CHUNK_BYTES),
    ({}, 1, harness._PSD_CHUNK_BYTES),
    ({}, 5, 1),
], ids=["desk", "n_cp_0", "filter_len_1", "one_trial", "one_frame_chunks"])
def test_batched_signal_equals_per_frame_frames(monkeypatch, family, modem_kw, psd_trials,
                                                chunk_bytes):
    monkeypatch.setattr(harness, "_PSD_CHUNK_BYTES", chunk_bytes)
    cfg = ExperimentConfig(modem=desk_config(**modem_kw), psd_trials=psd_trials, seed=3)
    signal = psd_signal(cfg, family, psd_frames(cfg))
    # counts in the order a search may ask them, each call a fresh generator
    for n_guard in (0, cfg.modem.k // 2 - 1, 3, 0):
        per_frame = per_frame_signal(cfg, family, n_guard)
        assert np.array_equal(np.concatenate(list(signal(n_guard))), per_frame)
        est = psd_estimate(signal(n_guard), cfg.modem)
        ref = psd_estimate(per_frame, cfg.modem)
        assert np.array_equal(est.freqs_hz, ref.freqs_hz)
        assert np.array_equal(est.density, ref.density)


def test_run_psd_draws_the_grids_once_per_run(monkeypatch):
    calls, stacks = [], {}
    draw, family = harness.qpsk_grid, harness._psd_family
    monkeypatch.setattr(harness, "qpsk_grid", lambda *args: calls.append(args) or draw(*args))

    def recorded(cfg, waveform, frames):
        stacks[waveform] = frames
        return family(cfg, waveform, frames)

    monkeypatch.setattr(harness, "_psd_family", recorded)
    cfg = ExperimentConfig(modem=ModemConfig(), waveforms=("otfs", "drufmc"), psd_trials=3)
    run_psd(cfg)
    # once per estimate it was 2 families x 7 estimates x 3, once per family 2 x 3
    assert len(calls) == 3
    assert stacks["otfs"] is stacks["drufmc"]
    assert stacks["otfs"].shape == (3, cfg.modem.k, cfg.modem.n)
    with pytest.raises(ValueError, match="read-only"):
        stacks["otfs"][0, 0, 0] = 0
