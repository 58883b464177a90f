"""Structured MMSE routes against the dense effective-channel route.

``ofdm_full_mmse``, ``otfs_mmse`` and ``drufmc_mmse`` must give the SINR grid
and the estimates of ``metrics.sinr_map`` and ``metrics.mmse_detect`` applied
to the dense KN x KN effective channels, over random valid modem
configurations (any N, guards nulled at the transmitter or only accounted,
both pulses, noise variances from 1e-4 to 1).  On the same configurations
each dense channel must be what its noiseless chain makes of every unit grid.
The sweep must not touch the dense route, which the package does not export.
With guards nulled at the transmitter, each link must send exactly the
channel its detector models.  Every link and every route takes its channel
as one ``ofdm.LinkChannel``, through one signature per kind.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddmod
from ddmod import channel as ch
from ddmod import drufmc, harness, metrics, ofdm, otfs
from ddmod.config import ModemConfig, desk_config
from ddmod.harness import WAVEFORMS, ExperimentConfig, evaluate_point
from ddmod.metrics import IllConditionedError, mmse_detect, net_sinr, sinr_map

from oracles import DENSE_REFERENCES, close, fence_dense_references, invec, vec

TOL = 1e-10

examples = settings(max_examples=40, deadline=1000, derandomize=True, database=None)

DENSE = {
    "ofdm-full": ofdm.ofdm_full_effective_channel,
    "otfs": otfs.otfs_effective_channel,
    "drufmc": drufmc.drufmc_effective_channel,
}


def structured(waveform, y, channel, cfg, sigma2):
    return LINKS[waveform][0](y, channel, cfg, sigma2)


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
    channel = ofdm.LinkChannel(paths, cfg)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((cfg.k, cfg.n)) + 1j * rng.standard_normal((cfg.k, cfg.n))
    sinr, x_hat = structured(waveform, y, channel, cfg, sigma2)
    eff = DENSE[waveform](channel.channel(WAVEFORMS[waveform][0]), cfg)
    assert sinr.shape == x_hat.shape == (cfg.k, cfg.n)
    assert close(sinr, sinr_map(eff, sigma2, cfg), TOL)
    assert close(vec(x_hat), mmse_detect(eff, vec(y), sigma2), TOL)


@pytest.mark.parametrize("snr_db", [-100.0, 100.0])
@pytest.mark.parametrize("pulse", ["ideal", "rrc"])
@pytest.mark.parametrize("waveform", sorted(DENSE))
def test_net_sinr_at_the_snr_range_ends_matches_dense(waveform, pulse, snr_db):
    # 1 / (sigma^2 G_jj) - 1 cancels: at -150 dB the routes miss the dense map by up to 1.7 dB
    cfg = desk_config(pulse=pulse)
    sigma2 = harness.noise_variance(snr_db)
    for seed in (0, 5):
        channel = ofdm.LinkChannel(ch.sample_eva_paths(seed, 500 / 3.6, cfg.f_c_hz), cfg)
        sinr, _ = structured(waveform, np.ones((cfg.k, cfg.n)), channel, cfg, sigma2)
        eff = DENSE[waveform](channel.channel(WAVEFORMS[waveform][0]), cfg)
        dense = net_sinr(sinr_map(eff, sigma2, cfg), cfg.n_guard)
        assert abs(net_sinr(sinr, cfg.n_guard) - dense) <= 1e-4


CHAINS = {
    "ofdm-full": (ofdm.ofdm_modulate, ofdm.ofdm_demodulate),
    "otfs": (otfs.otfs_modulate, otfs.otfs_demodulate),
    "drufmc": (drufmc.drufmc_modulate, drufmc.drufmc_demodulate),
}


@pytest.mark.parametrize("waveform", sorted(DENSE))
@settings(max_examples=60, deadline=1000, derandomize=True, database=None)
@given(case=modem_and_paths())
def test_dense_reference_is_its_probed_chain(waveform, case):
    # column j of the reference is what the noiseless chain makes of unit grid j
    cfg, paths = case
    chan = ofdm.LinkChannel(paths, cfg).channel(WAVEFORMS[waveform][0])
    modulate, demodulate = CHAINS[waveform]
    eff = DENSE[waveform](chan, cfg)
    bound = 1e-9 * max(1.0, np.abs(eff).max())
    for j, e in enumerate(np.eye(cfg.k * cfg.n)):
        r = ofdm.apply_channel(modulate(invec(e, cfg.k), cfg, ofdm._tx_guard(cfg)), chan, 0.0)
        assert np.abs(vec(demodulate(r, cfg)) - eff[:, j]).max() <= bound, j


def zero_channel():
    return ch.PathSet(gains=np.zeros(1, dtype=complex), delays_s=np.zeros(1), dopplers_hz=np.zeros(1))


@pytest.mark.parametrize("waveform", sorted(DENSE))
def test_singular_channel_raises_without_noise(waveform):
    cfg = desk_config(n=3)
    channel = ofdm.LinkChannel(zero_channel(), cfg)
    y = np.ones((cfg.k, cfg.n), dtype=complex)
    with pytest.raises(IllConditionedError):
        structured(waveform, y, channel, cfg, 0.0)
    with pytest.raises(IllConditionedError):
        sinr_map(DENSE[waveform](channel.channel(WAVEFORMS[waveform][0]), cfg), 0.0, cfg)


def test_tx_nulled_rank_loss_raises_without_noise():
    cfg = desk_config(n=2, n_guard=3, guard_nulling="tx")
    channel = ofdm.LinkChannel(ch.ideal_path(), cfg)
    with pytest.raises(IllConditionedError):
        structured("ofdm-full", np.ones((cfg.k, cfg.n)), channel, cfg, 0.0)


# for these sigma^2 the formula 1 / (sigma^2 (1 / sqrt(sigma^2))^2) - 1 is not exactly 0
@pytest.mark.parametrize("sigma2", [0.05, 0.7])
def test_tx_nulled_ofdm_full_guard_bins_are_exactly_zero(sigma2):
    cfg = desk_config(n_guard=4, guard_nulling="tx")
    channel = ofdm.LinkChannel(ch.sample_eva_paths(9, 50 / 3.6, cfg.f_c_hz), cfg)
    sinr, _ = structured("ofdm-full", np.ones((cfg.k, cfg.n)), channel, cfg, sigma2)
    assert np.all(sinr[:4] == 0) and np.all(sinr[-4:] == 0)
    assert np.all(sinr[4:-4] > 0)


@pytest.mark.parametrize("waveform", WAVEFORMS)
def test_sweep_never_builds_the_dense_channel(monkeypatch, waveform):
    fence_dense_references(monkeypatch)
    cfg = ExperimentConfig(modem=desk_config(pulse="rrc"), waveforms=(waveform,),
                           snr_db=(20.0,), speeds_kmh=(500.0,), trials=1)
    row = evaluate_point(cfg, waveform, 500.0, 0, 0, harness.grid_point(cfg, 500.0, 0, 0))
    assert np.isfinite([row.net_sinr_db, row.avg_se_bps_hz, row.nmse]).all()


def test_package_does_not_export_the_dense_route():
    # the dense builders and their detector stay in their modules as references
    for _, name in DENSE_REFERENCES:
        assert not hasattr(ddmod, name) and name not in ddmod.__all__, name


LINKS = {
    "ofdm-full": (ofdm.ofdm_full_mmse, ofdm, ofdm.ofdm_full_link),
    "otfs": (otfs.otfs_mmse, otfs, otfs.otfs_link),
    "drufmc": (drufmc.drufmc_mmse, drufmc, drufmc.drufmc_link),
}


def test_every_link_and_route_takes_one_channel_signature():
    def shape(fn):
        return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]

    empty = inspect.Parameter.empty
    for name, (_, link) in WAVEFORMS.items():
        assert shape(link) == [("x", empty), ("channel", empty), ("cfg", empty),
                               ("sigma2", empty), ("seed", None)], name
    for route, _, _ in LINKS.values():
        assert shape(route) == [("y", empty), ("channel", empty), ("cfg", empty),
                                ("sigma2", empty)], route.__name__


@pytest.mark.parametrize("pulse", ["ideal", "rrc"])
@pytest.mark.parametrize("waveform", LINKS)
def test_tx_nulled_link_sends_what_its_detector_models(monkeypatch, waveform, pulse):
    # the grid a noiseless link hands its detector is the TX-nulled dense
    # channel times the symbols: the guard subcarriers are not transmitted
    cfg = desk_config(n_guard=4, guard_nulling="tx", pulse=pulse)
    channel = ofdm.LinkChannel(ch.sample_eva_paths(3, 500 / 3.6, cfg.f_c_hz), cfg)
    detector, module, link = LINKS[waveform]
    received = []
    monkeypatch.setattr(module, detector.__name__,
                        lambda y, *args: received.append(y) or (None, None))
    x = metrics.qpsk_grid(np.random.default_rng(1), cfg.k, cfg.n)
    link(x, channel, cfg, 0.0, None)
    chan = channel.channel(WAVEFORMS[waveform][0])
    assert close(vec(received[0]), DENSE[waveform](chan, cfg) @ vec(x), TOL)


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
