"""Work shared across the cells of a sweep point and across a PSD family's guard counts.

A grid point's waveforms share one ``ofdm.LinkChannel`` (``harness.grid_point``),
which materializes one channel, one frequency-time stack and one MMSE factor
per TX null for all of them, and the guard search modulates one set of seeded
grids per PSD family (``harness.psd_signal``).  Both must give exactly what a
fresh channel per cell and the per-frame transmitter give
(``tests/oracles.py``), and a failure must stay in the cells it belongs to.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import channel as ch
from ddmod import drufmc, harness, mmse, ofdm, otfs, transforms
from ddmod.config import ModemConfig, desk_config
from ddmod.harness import WAVEFORMS, ExperimentConfig, evaluate_point, grid_point, psd_signal
from ddmod.harness import run_psd, run_sweep
from ddmod.metrics import psd_estimate

from oracles import per_cell_row, per_frame_signal

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
    stacks, fts, detected = [], [], []
    factor, ft_stack = mmse._inverse_factor, ofdm.per_symbol_ft_channel

    def counted(a):
        if a.ndim == 3:                 # DR-UFMC factors one K x K block at a time
            stacks.append(a.shape)
        return factor(a)

    def recorded(detect):
        def wrapper(c, *args, **kwargs):
            detected.append(c)          # kept alive, so the ids below are distinct objects
            return detect(c, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(mmse, "_inverse_factor", counted)
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


def test_table1_drufmc_cell_builds_the_dense_precoder_once_and_frees_it(monkeypatch):
    built = []
    precoder = drufmc.ufmc_precoder

    def recorded(cfg):
        p = precoder(cfg)
        built.append(weakref.ref(p))
        return p

    monkeypatch.setattr(transforms, "_CACHE", {})
    monkeypatch.setattr(drufmc, "ufmc_precoder", recorded)
    cfg = ExperimentConfig(modem=ModemConfig(), waveforms=("drufmc",), speeds_kmh=(500.0,),
                           snr_db=(20.0, 30.0), trials=1, seed=4)
    rows, failures = run_sweep(cfg)
    assert not failures and len(rows) == 2
    gc.collect()
    assert len(built) == 1 and built[0]() is None
    ko, k = cfg.modem.k * cfg.modem.o_s, cfg.modem.k
    held = [a for hit in transforms._CACHE.values()
            for a in (hit if isinstance(hit, tuple) else (hit,))]
    # neither the dense precoder nor W^H is memoized, and no view keeps the precoder alive
    assert not [a.shape for a in held if a.shape in {(ko + cfg.modem.filter_len - 1, k), (ko, k)}]


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
    signal = psd_signal(cfg, family)
    # counts in the order a search may ask them, each call a fresh generator
    for n_guard in (0, cfg.modem.k // 2 - 1, 3, 0):
        per_frame = per_frame_signal(cfg, family, n_guard)
        assert np.array_equal(np.concatenate(list(signal(n_guard))), per_frame)
        est = psd_estimate(signal(n_guard), cfg.modem)
        ref = psd_estimate(per_frame, cfg.modem)
        assert np.array_equal(est.freqs_hz, ref.freqs_hz)
        assert np.array_equal(est.density, ref.density)


def test_run_psd_draws_each_familys_grids_once(monkeypatch):
    calls = []
    draw = harness.qpsk_grid
    monkeypatch.setattr(harness, "qpsk_grid", lambda *args: calls.append(args) or draw(*args))
    cfg = ExperimentConfig(modem=ModemConfig(), waveforms=("otfs", "drufmc"), psd_trials=3)
    run_psd(cfg)
    assert len(calls) == 2 * 3      # once per estimate it was 2 families x 7 estimates x 3
