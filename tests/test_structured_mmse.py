"""Structured MMSE routes against the dense effective-channel route.

``ofdm_full_mmse``, ``otfs_mmse`` and ``drufmc_mmse`` must give the SINR grid
and the estimates of ``metrics.sinr_map`` and ``metrics.mmse_detect`` applied
to the dense KN x KN effective channels, over random valid modem
configurations (any N, guards nulled at the transmitter or only accounted,
both pulses, noise variances from 1e-4 to 1), and the sweep must not touch
the dense route.  With guards nulled at the transmitter, each link must send
exactly the channel its detector models.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import channel as ch
from ddmod import drufmc, harness, metrics, ofdm, otfs
from ddmod.config import ModemConfig, desk_config
from ddmod.harness import WAVEFORMS, ExperimentConfig, evaluate_point
from ddmod.metrics import IllConditionedError, mmse_detect, sinr_map
from ddmod.transforms import vec

TOL = 1e-10

examples = settings(max_examples=40, deadline=1000, derandomize=True, database=None)

DENSE = {
    "ofdm-full": ofdm.ofdm_full_effective_channel,
    "otfs": otfs.otfs_effective_channel,
    "drufmc": drufmc.drufmc_effective_channel,
}


def structured(waveform, y, chan, cfg, sigma2):
    if waveform == "drufmc":
        return drufmc.drufmc_mmse(y, chan, cfg, sigma2)
    route = ofdm.ofdm_full_mmse if waveform == "ofdm-full" else otfs.otfs_mmse
    return route(y, ofdm.per_symbol_ft_channel(chan, cfg), cfg, sigma2)


def close(a, b):
    return np.abs(a - b).max() <= TOL * max(1.0, np.abs(b).max())


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
        n_guard=draw(st.integers(0, k // 2 - 1)),
        guard_nulling=draw(st.sampled_from(["tx", "accounting"])),
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


@pytest.mark.parametrize("waveform", sorted(DENSE))
@examples
@given(case=modem_and_paths(), log_sigma2=st.floats(-4.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_structured_matches_dense(waveform, case, log_sigma2, seed):
    cfg, paths = case
    sigma2 = 10.0 ** log_sigma2
    chan = ch.realize(paths, cfg, with_cp=waveform != "drufmc")
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((cfg.k, cfg.n)) + 1j * rng.standard_normal((cfg.k, cfg.n))
    sinr, x_hat = structured(waveform, y, chan, cfg, sigma2)
    eff = DENSE[waveform](chan, cfg)
    assert sinr.shape == x_hat.shape == (cfg.k, cfg.n)
    assert close(sinr, sinr_map(eff, sigma2, cfg))
    assert close(vec(x_hat), mmse_detect(eff, vec(y), sigma2))


def zero_channel():
    return ch.PathSet(gains=np.zeros(1, dtype=complex), delays_s=np.zeros(1), dopplers_hz=np.zeros(1))


@pytest.mark.parametrize("waveform", sorted(DENSE))
def test_singular_channel_raises_without_noise(waveform):
    cfg = desk_config(n=3)
    chan = ch.realize(zero_channel(), cfg, with_cp=waveform != "drufmc")
    y = np.ones((cfg.k, cfg.n), dtype=complex)
    with pytest.raises(IllConditionedError):
        structured(waveform, y, chan, cfg, 0.0)
    with pytest.raises(IllConditionedError):
        sinr_map(DENSE[waveform](chan, cfg), 0.0, cfg)


def test_tx_nulled_rank_loss_raises_without_noise():
    cfg = desk_config(n=2, n_guard=3, guard_nulling="tx")
    chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
    with pytest.raises(IllConditionedError):
        structured("ofdm-full", np.ones((cfg.k, cfg.n)), chan, cfg, 0.0)


# for these sigma^2 the formula 1 / (sigma^2 (1 / sqrt(sigma^2))^2) - 1 is not exactly 0
@pytest.mark.parametrize("sigma2", [0.05, 0.7])
def test_tx_nulled_ofdm_full_guard_bins_are_exactly_zero(sigma2):
    cfg = desk_config(n_guard=4, guard_nulling="tx")
    chan = ch.realize(ch.sample_eva_paths(9, 50 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
    sinr, _ = structured("ofdm-full", np.ones((cfg.k, cfg.n)), chan, cfg, sigma2)
    assert np.all(sinr[:4] == 0) and np.all(sinr[-4:] == 0)
    assert np.all(sinr[4:-4] > 0)


@pytest.mark.parametrize("waveform", WAVEFORMS)
def test_sweep_never_builds_the_dense_channel(monkeypatch, waveform):
    def dense_route(*args, **kwargs):
        raise AssertionError("dense KN x KN route on the sweep's hot path")

    for module, name in [(ofdm, "ofdm_full_effective_channel"), (otfs, "otfs_effective_channel"),
                         (drufmc, "drufmc_effective_channel"), (metrics, "sinr_map"),
                         (metrics, "mmse_detect"), (harness, "sinr_map")]:
        monkeypatch.setattr(module, name, dense_route)
    # harness does not import mmse_detect; binding it anyway catches a later import
    monkeypatch.setattr(harness, "mmse_detect", dense_route, raising=False)
    cfg = ExperimentConfig(modem=desk_config(pulse="rrc"), waveforms=(waveform,),
                           snr_db=(20.0,), speeds_kmh=(500.0,), trials=1)
    row = evaluate_point(cfg, waveform, 500.0, 0, 0)
    assert np.isfinite([row.net_sinr_db, row.avg_se_bps_hz, row.nmse]).all()


LINKS = {
    "ofdm-full": (ofdm, "ofdm_full_mmse", ofdm.ofdm_full_link),
    "otfs": (otfs, "otfs_mmse", otfs.otfs_link),
    "drufmc": (drufmc, "drufmc_mmse", drufmc.drufmc_link),
}


@pytest.mark.parametrize("pulse", ["ideal", "rrc"])
@pytest.mark.parametrize("waveform", LINKS)
def test_tx_nulled_link_sends_what_its_detector_models(monkeypatch, waveform, pulse):
    # the grid a noiseless link hands its detector is the TX-nulled dense
    # channel times the symbols: the guard subcarriers are not transmitted
    cfg = desk_config(n_guard=4, guard_nulling="tx", pulse=pulse)
    cp_chan = ch.realize(ch.sample_eva_paths(3, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
    with_cp = WAVEFORMS[waveform][0]
    chan = cp_chan if with_cp else ch.channel_matrices(cp_chan, cfg, with_cp=False)
    stack = {"ft": ofdm.per_symbol_ft_channel(chan, cfg)} if with_cp else {}
    module, detector, link = LINKS[waveform]
    received = []
    monkeypatch.setattr(module, detector, lambda y, *args: received.append(y) or (None, None))
    x = metrics.qpsk_grid(np.random.default_rng(1), cfg.k, cfg.n)
    link(x, chan, cfg, 0.0, None, **stack)
    assert close(vec(received[0]), DENSE[waveform](chan, cfg) @ vec(x))


def test_tx_nulled_onetap_guard_bins_report_zero():
    cfg = desk_config(n_guard=4, guard_nulling="tx")
    chan = ch.realize(ch.sample_eva_paths(9, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
    ft = ofdm.per_symbol_ft_channel(chan, cfg)
    sinr = ofdm.ofdm_onetap_sinr(ft, cfg, 0.01)
    assert np.all(sinr[:4] == 0) and np.all(sinr[-4:] == 0)
    # interior bins see interference only from the transmitted columns
    accounting = replace(cfg, guard_nulling="accounting")
    nulled = ofdm.ofdm_onetap_sinr(ft * ofdm._tx_null(cfg), accounting, 0.01)
    assert np.array_equal(sinr, nulled)
    assert np.all(sinr[4:-4] > 0)
