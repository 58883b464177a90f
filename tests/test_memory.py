"""Memory of a table-1 grid point and of a PSD run, and chunked stack products
against whole ones.

The per-symbol stack products (FT stack, Gram and factor, error diagonals,
DR-UFMC heads, one-tap row energies) run over symbols in chunks of about
``mmse._STACK_CHUNK_BYTES``, so a cell's temporaries are a few chunks, not whole
(N, K, K) stacks.  A PSD run holds its seeded frames once, as one
(psd_trials, K, N) stack that both family threads read, and streams them to
the Welch estimate in chunks, so its memory grows by one frame stack per
added frame stack.  ``tracemalloc`` sees numpy's array allocations, so a
traced high-water mark above the starting traced memory bounds what a cell or
a run holds and frees; BLAS work buffers are not traced.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ddmod import harness, mmse
from ddmod.config import ModemConfig, desk_config
from ddmod.harness import WAVEFORMS, ExperimentConfig

from oracles import clear_memos

# One table-1 (N, K, K) complex stack is 4.19 MB.  Measured with numpy 2.4,
# the per-config memos built inside the cells, in the sweep's order: DR-UFMC
# 2.66 stacks (it realizes the point's channel), OTFS 2.30 (it builds and
# keeps the point's FT stack and its factor), OFDM-full 0.52 and one-tap 0.52.
# With whole-stack temporaries and the dense precoder and W they were 5.94,
# 5.30, 2.03 and 1.52 stacks (24.9, 22.2, 8.5 and 6.4 MB).
BOUND_STACKS = 3

# A whole table-1 point, its cells in the sweep's order from cold memos: 2.74
# stacks with the ideal pulse and 3.66 with the RRC one (2.59 and 3.51 with
# the memos warm).  Running the CP-bearing cells first and keeping their FT
# stack and factors through the DR-UFMC cell peaked at 4.63 and 5.66.
POINT_BOUND_STACKS = 4

# Adding 100 table-1 frames to a two-family PSD run adds one (100, K, N) frame
# stack, 3.28 MB, to its traced peak: 0.95-0.99 stacks measured.  With a
# stack drawn and isfft'ed per family, through a three-stack transient, and a
# 4 MB Welch batch per family thread it was 3.6-5.6 stacks, depending on how
# the two family threads overlapped.
PSD_BOUND_FRAME_STACKS = 1.5


def test_each_table1_cell_peaks_below_three_stacks(monkeypatch):
    cfg = ExperimentConfig(modem=ModemConfig(), speeds_kmh=(500.0,), snr_db=(20.0,), trials=1,
                           seed=0)
    stack = 16 * cfg.modem.n * cfg.modem.k ** 2
    peaks, evaluate = {}, harness.evaluate_point

    def traced(cfg, waveform, *args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        row = evaluate(cfg, waveform, *args)
        peaks[waveform] = (tracemalloc.get_traced_memory()[1] - start) / stack
        return row

    clear_memos()
    monkeypatch.setattr(harness, "evaluate_point", traced)
    tracemalloc.start()
    try:
        results = harness._point_worker((cfg, (500.0, 0, 0)))   # the sweep's cell order
    finally:
        tracemalloc.stop()
    assert all(row is not None for row, _ in results)
    assert set(peaks) == set(WAVEFORMS)
    assert max(peaks.values()) <= BOUND_STACKS, peaks


@pytest.mark.parametrize("pulse", ["ideal", "rrc"])
def test_each_table1_point_peaks_below_four_stacks(pulse):
    cfg = ExperimentConfig(modem=ModemConfig(pulse=pulse), speeds_kmh=(500.0,), snr_db=(20.0,),
                           trials=1, seed=0)
    stack = 16 * cfg.modem.n * cfg.modem.k ** 2
    task = (cfg, (500.0, 0, 0))
    harness._point_worker(task)     # lazy imports and first-call allocations, untraced
    clear_memos()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        results = harness._point_worker(task)
        peak = (tracemalloc.get_traced_memory()[1] - start) / stack
    finally:
        tracemalloc.stop()
    assert all(row is not None for row, _ in results)
    assert peak <= POINT_BOUND_STACKS, peak


def test_psd_run_grows_by_one_frame_stack_per_added_frame_stack():
    cfg = ExperimentConfig(modem=ModemConfig(), waveforms=("otfs", "drufmc"), psd_trials=1)
    harness.run_psd(cfg)    # lazy imports and first-call allocations, untraced
    peaks = {}
    for trials in (100, 200):
        cfg = replace(cfg, psd_trials=trials)
        clear_memos()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            harness.run_psd(cfg)
            peaks[trials] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    stack = 16 * 100 * cfg.modem.k * cfg.modem.n
    assert (peaks[200] - peaks[100]) / stack <= PSD_BOUND_FRAME_STACKS, peaks


def test_worker_estimate_holds_a_cell_and_its_point():
    # the pool sizes its default from a per-worker estimate in stacks: a whole
    # point at its measured bound plus the interpreter's 7 must fit in it
    assert harness._WORKER_STACKS >= POINT_BOUND_STACKS + 7


@pytest.mark.parametrize("modem", [desk_config(pulse="rrc"),
                                   desk_config(n_guard=3, guard_nulling="tx")],
                         ids=["desk_rrc", "desk_tx"])
def test_one_symbol_chunks_give_the_same_rows(monkeypatch, modem):
    monkeypatch.setenv("DDMOD_THREADS", "1")    # the chunk size is set in this process
    cfg = ExperimentConfig(modem=modem, speeds_kmh=(500.0,), snr_db=(10.0, 30.0), trials=1,
                           seed=5)
    monkeypatch.setattr(mmse, "_STACK_CHUNK_BYTES", 1 << 40)
    whole, failures = harness.run_sweep(cfg)
    assert not failures
    monkeypatch.setattr(mmse, "_STACK_CHUNK_BYTES", 1)
    assert harness.run_sweep(cfg) == (whole, [])
