"""Config parsing, sweep determinism, seeding discipline and the CLI surface."""

import concurrent.futures
import dataclasses
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ddmod import channel as ch
from ddmod import harness, ofdm, transforms
from ddmod.config import ConfigError, ModemConfig, desk_config
from ddmod.metrics import GuardSearchError, net_sinr, qpsk_grid
from ddmod.harness import (
    CSV_HEADER,
    ExperimentConfig,
    _worker_count,
    channel_seed,
    config_from_dict,
    evaluate_point,
    load_config,
    main,
    run_psd,
    run_sweep,
)


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


DESK_LINES = "k = 32\nn = 8\no_s = 4\nb = 4\nfilter_len = 16\n"


class TestLoadConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        m = cfg.modem
        assert (m.k, m.n, m.o_s, m.d) == (128, 16, 10, 16)
        assert m.delta_f_hz == pytest.approx(120e3)
        assert m.f_c_hz == pytest.approx(28e9)
        assert (m.filter_len, m.filter_att_db) == (60, 100.0)
        assert m.delta_oob_db == pytest.approx(-30.0)
        assert m.n_cp == 90

    def test_k_bd_constraint_violation(self, tmp_path):
        with pytest.raises(ConfigError, match=r"K = B\*D"):
            load_config(write_config(tmp_path, "k = 12\nb = 8\n"))

    def test_oversampling_constraint(self, tmp_path):
        with pytest.raises(ConfigError, match="O_s"):
            load_config(write_config(tmp_path, "o_s = 0\n"))

    def test_parse_error_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":2:"):
            load_config(write_config(tmp_path, "k = 32\nnot a pair\n"))

    def test_unknown_key_rejected(self, tmp_path):
        for line in ("mystery = 12", "out = x.csv", "p_t = 2", "onetap = zf", "channel = ideal",
                     "d = 16", "f_c_hz = 3.5e9", "delta_f_hz = 15e3"):
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(write_config(tmp_path, line + "\n"))

    @pytest.mark.parametrize("text", [
        "trials = 3\nseed = 1\ntrials = 5\n",
        "n_guard_ofdm-full = 4\nseed = 1\nn_guard_ofdm_full = 6\n",
    ], ids=["same_spelling", "dash_and_underscore"])
    def test_key_set_twice_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r":3: key .* already set on line 1"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("line, match", [
        ("filter_att_db = nan", "filter_att_db must be finite and > 0, got nan"),
        ("filter_att_db = inf", "filter_att_db must be finite and > 0, got inf"),
        ("filter_att_db = 10000", "filter_att_db = 10000.0 overflows 10\\^\\(att/20\\)"),
        ("delta_oob_db = nan", "delta_oob_db must be finite, got nan"),
    ], ids=["nan_attenuation", "inf_attenuation", "overflowing_attenuation", "nan_oob"])
    def test_bad_float_field_is_a_config_error(self, tmp_path, capsys, line, match):
        # each once wrote NaN rows, failed every cell or ended in a traceback
        path = write_config(tmp_path, "waveforms = otfs, drufmc\ntrials = 1\n" + line + "\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        out = tmp_path / "out.csv"
        for command in ("run", "psd"):
            assert main([command, "--config", path, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert all(re.fullmatch(f"config error: {match}.*", err) for err in lines)
        assert not out.exists()

    def test_cp_may_span_the_whole_symbol_and_no_more(self):
        # a longer CP once copied never-written buffer rows into every frame
        assert desk_config(n_cp=32 * 4).block_len == 2 * 32 * 4
        with pytest.raises(ConfigError, match=r"N_CP must be in \[0, K\*O_s = 128\], got 129"):
            desk_config(n_cp=32 * 4 + 1)

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xe9\nk = 32\n")
        with pytest.raises(ConfigError, match="cannot read config .*utf-8"):
            load_config(str(path))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and err.count("\n") == 1

    def test_config_saved_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        # the mark once became part of the first key: unknown key '\ufefftrials'
        path = tmp_path / "bom.cfg"
        path.write_bytes((DESK_LINES + "trials = 1\nwaveforms = otfs\n").encode("utf-8-sig"))
        assert load_config(str(path)).trials == 1
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "8 rows\n"

    def test_every_modem_field_is_a_config_key(self, tmp_path):
        values = dict(k=16, n=4, o_s=2, b=2, filter_len=5, filter_att_db=60.5, n_cp=3,
                      n_guard=1, delta_oob_db=-40.0, pulse="rrc", guard_nulling="tx")
        assert set(values) == {f.name for f in dataclasses.fields(ModemConfig)}
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        modem = load_config(write_config(tmp_path, text)).modem
        for key, value in values.items():
            assert getattr(modem, key) == value and value != getattr(ModemConfig(), key), key

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("Recognized keys:", 1)[1].split(")", 1)[0]
        listed = {key for span in re.findall(r"`([^`]+)`", section) for key in span.split()}
        guards = {"n_guard_" + wf.replace("-", "_") for wf in harness.WAVEFORMS}
        accepted = ({f.name for f in dataclasses.fields(ModemConfig)} | harness._INT_KEYS
                    | harness._LIST_KEYS | guards)
        assert listed == accepted
        for key in listed:
            try:
                config_from_dict({key: "1"})
            except ConfigError as exc:
                assert "unknown key" not in str(exc), key

    def test_comments_and_lists(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            "# comment\nwaveforms = otfs, drufmc  # trailing\nsnr_db = 0, 10\n"
            "speeds_kmh = 500\ntrials = 3\nseed = 9\n",
        ))
        assert cfg.waveforms == ("otfs", "drufmc")
        assert cfg.snr_db == (0.0, 10.0)
        assert cfg.trials == 3 and cfg.seed == 9

    def test_empty_snr_grid_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ExperimentConfig(snr_db=())

    def test_desk_step_fills_unset_modem_keys(self, tmp_path):
        path = write_config(tmp_path, "n = 4\npulse = rrc\n")
        assert load_config(path).modem == ModemConfig(n=4, pulse="rrc")
        assert load_config(path, desk=True).modem == desk_config(n=4, pulse="rrc")

    @pytest.mark.parametrize("line, match", [
        ("n_guard_otfs = -1", "guard override for otfs: .*0 <= 2\\*N_G < K=32, got N_G=-1"),
        ("n_guard_otfs = 16", "guard override for otfs: .*0 <= 2\\*N_G < K=32, got N_G=16"),
        ("n_guard_otfss = 3", "unknown waveform 'otfss'"),
    ], ids=["negative", "half_of_k", "misspelled_waveform"])
    def test_bad_guard_override_is_a_config_error(self, tmp_path, capsys, line, match):
        path = write_config(tmp_path, DESK_LINES + line + "\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["run", "--config", path]) == 2
        assert "config error: guard override" in capsys.readouterr().err

    def test_guard_override_checked_against_the_k_that_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, "waveforms = drufmc\nn_guard_drufmc = 20\n")
        assert load_config(path).modem_for("drufmc").n_guard == 20     # 2*20 < K=128
        with pytest.raises(ConfigError, match="guard override for drufmc: .*K=32, got N_G=20"):
            load_config(path, desk=True)
        assert main(["run", "--config", path]) == 2
        assert "config error: guard override for drufmc" in capsys.readouterr().err

    def test_psd_trials_below_one_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, DESK_LINES + "waveforms = otfs\npsd_trials = 0\n")
        with pytest.raises(ConfigError, match="psd_trials must be >= 1, got 0"):
            load_config(path)
        out = str(tmp_path / "psd.csv")
        assert main(["psd", "--config", path, "--out", out]) == 2
        assert "config error: psd_trials must be >= 1" in capsys.readouterr().err

    def test_psd_frame_count_has_no_command_line_option(self, tmp_path, capsys):
        path = write_config(tmp_path, DESK_LINES + "waveforms = otfs\npsd_trials = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["psd", "--config", path, "--out", str(tmp_path / "psd.csv"), "--trials", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials 2" in capsys.readouterr().err

    def test_negative_seed_in_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            load_config(write_config(tmp_path, "seed = -1\n"))

    @pytest.mark.parametrize("command", ["run", "psd"])
    def test_negative_seed_exits_with_config_error(self, tmp_path, capsys, command):
        # numpy refuses the seed: run once failed every cell, psd raised a traceback
        path = write_config(tmp_path, DESK_LINES + "waveforms = otfs\ntrials = 1\nseed = -1\n")
        out = str(tmp_path / "out.csv")
        assert main([command, "--config", path, "--out", out]) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("line, match", [
        ("speeds_kmh = ,", "speeds_kmh must be non-empty"),
        ("waveforms = ,", "waveforms must be non-empty"),
        ("waveforms = otfs, otfs", "waveforms lists a value twice"),
        ("speeds_kmh = 50, 50.0", "speeds_kmh lists a value twice"),
        ("snr_db = 10, 10", "snr_db lists a value twice"),
        ("speeds_kmh = 50, 50.00000000001", "speeds_kmh lists a value twice"),
        ("snr_db = 10, 10.000000000001", "snr_db lists a value twice"),
        ("snr_db = 0, -0.0", "snr_db lists a value twice"),
        ("speeds_kmh = -50", "speeds_kmh must be finite and >= 0, got -50"),
        ("snr_db = nan", "snr_db must be finite, got nan"),
        ("snr_db = inf", "snr_db must be finite, got inf"),
        ("snr_db = 4000", "snr_db = 4000.0 is out of range"),
        ("snr_db = -4000", "snr_db = -4000.0 is out of range"),
        ("snr_db = -3100", "snr_db = -3100.0 is out of range"),
        ("speeds_kmh = 1.08e9", "speeds_kmh must be below the speed of light"),
        ("speeds_kmh = 1e300", "speeds_kmh must be below the speed of light"),
        ("speeds_kmh = 1e308", "speeds_kmh must be below the speed of light"),
    ], ids=["empty_speeds", "empty_waveforms", "duplicate_waveform", "duplicate_speed",
            "duplicate_snr", "speeds_equal_in_the_csv", "snrs_equal_in_the_csv",
            "signed_zero_snr", "negative_speed", "nan_snr", "inf_snr", "overflowing_snr",
            "underflowing_snr", "infinite_noise_snr", "faster_than_light",
            "nan_doppler_speed", "overflowing_speed"])
    def test_bad_sweep_axis_is_a_config_error(self, tmp_path, capsys, line, match):
        # each once gave 0 rows, duplicated rows, NaN rows or a traceback per cell
        path = write_config(tmp_path, DESK_LINES + "trials = 1\n" + line + "\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        out = str(tmp_path / "out.csv")
        assert main(["run", "--config", path, "--out", out]) == 2
        assert main(["psd", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: {match.split(',')[0]}") == 2


    @pytest.mark.parametrize("command", ["run", "psd"])
    def test_out_into_a_missing_directory_is_refused_before_any_work(self, tmp_path, monkeypatch,
                                                                      capsys, command):
        # the sweep once ran every cell, then died writing the CSV with exit 1
        calls = []
        monkeypatch.setattr(harness, "evaluate_point", lambda *args: calls.append(args))
        monkeypatch.setattr(harness, "_psd_family", lambda *args: calls.append(args))
        path = write_config(tmp_path, DESK_LINES + "waveforms = otfs\ntrials = 1\npsd_trials = 1\n")
        out = tmp_path / "missing" / "out.csv"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert calls == []
        assert capsys.readouterr().err == f"config error: --out directory {out.parent} does not exist\n"
        # an --out that names an existing directory is refused the same way
        out_dir = tmp_path / "existing"
        out_dir.mkdir()
        assert main([command, "--config", path, "--out", str(out_dir)]) == 2
        assert calls == [] and not any(out_dir.iterdir())
        assert capsys.readouterr().err == f"config error: --out {out_dir} is a directory\n"


class TestSeeding:
    def test_channel_seed_excludes_waveform(self):
        # same grid point must give the same realization to every waveform
        s1 = channel_seed(1, 2, 7)
        s2 = channel_seed(1, 2, 7)
        a = ch.sample_eva_paths(s1, 500 / 3.6, 28e9)
        b = ch.sample_eva_paths(s2, 500 / 3.6, 28e9)
        assert np.array_equal(a.gains, b.gains)

    def test_speed_curves_share_draws(self):
        # 50 and 500 km/h reuse gains and ray angles; only the Doppler scale moves
        cfg = ExperimentConfig(seed=1)
        a = harness._trial_paths(cfg, 50.0, 2, 7)
        b = harness._trial_paths(cfg, 500.0, 2, 7)
        assert np.array_equal(a.gains, b.gains)
        assert np.abs(b.dopplers_hz - 10 * a.dopplers_hz).max() < 1e-6

    def test_distinct_trials_differ(self):
        a = ch.sample_eva_paths(channel_seed(1, 0, 0), 500 / 3.6, 28e9)
        b = ch.sample_eva_paths(channel_seed(1, 0, 1), 500 / 3.6, 28e9)
        assert not np.array_equal(a.gains, b.gains)


def desk_exp(**kw):
    base = dict(DESK_LINES=None)
    raw = {
        "k": "32", "n": "8", "o_s": "4", "b": "4", "filter_len": "16",
        "waveforms": "otfs", "snr_db": "10", "speeds_kmh": "500",
        "trials": "2", "seed": "11",
    }
    raw.update({k: str(v) for k, v in kw.items()})
    return config_from_dict(raw)


class TestRunSweep:
    def test_rows_and_csv_schema(self, tmp_path):
        cfg = desk_exp()
        out = tmp_path / "rows.csv"
        rows, failures = run_sweep(cfg, out_path=str(out))
        assert not failures
        assert len(rows) == 2
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_byte_identical_rerun(self, tmp_path):
        cfg = desk_exp(waveforms="otfs, ofdm-onetap", trials="2")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, out_path=str(a))
        run_sweep(config_from_dict({
            "k": "32", "n": "8", "o_s": "4", "b": "4", "filter_len": "16",
            "waveforms": "otfs, ofdm-onetap", "snr_db": "10", "speeds_kmh": "500",
            "trials": "2", "seed": "11",
        }), out_path=str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_timing_fills_runtime_and_moves_nothing_else(self, tmp_path, capsys):
        cfg = desk_exp(waveforms="otfs, drufmc, ofdm-full, ofdm-onetap")
        untimed, _ = run_sweep(cfg)
        timed, failures = run_sweep(dataclasses.replace(cfg, timing=True))
        assert not failures and len(timed) == len(untimed) == 8
        for row, ref in zip(timed, untimed):
            assert row.runtime_s > 0 and ref.runtime_s == 0
            assert dataclasses.replace(row, runtime_s=0.0) == ref
        path = write_config(tmp_path, DESK_LINES + "waveforms = otfs\nspeeds_kmh = 500\n"
                            "snr_db = 10\ntrials = 1\n")
        out = tmp_path / "timed.csv"
        assert main(["run", "--config", path, "--out", str(out), "--timing"]) == 0
        header, row = out.read_text().splitlines()
        assert header == CSV_HEADER and len(header.split(",")) == len(row.split(",")) == 8
        assert capsys.readouterr().out == f"1 rows -> {out}\n"

    @staticmethod
    def ideal_channel_net_sinr_db(cfg, waveform, snr_db=17.0):
        """Net SINR of the waveform's link over a unit tap at unit transmit power."""
        link = harness.WAVEFORMS[waveform][1]
        channel = ofdm.LinkChannel(ch.ideal_path(), cfg)
        x_dd = qpsk_grid(np.random.default_rng(0), cfg.k, cfg.n)
        sinr, _ = link(x_dd, channel, cfg, 1.0 / 10.0 ** (snr_db / 10.0), 1)
        return net_sinr(sinr, cfg.n_guard)

    def test_ideal_channel_net_sinr_closed_form(self):
        # unit tap: the CP chains give exactly 1 / sigma^2 per bin
        for wf in ["otfs", "ofdm-full"]:
            net_db = self.ideal_channel_net_sinr_db(desk_config(), wf)
            assert net_db == pytest.approx(17.0, abs=0.2)

    def test_ideal_channel_drufmc_degenerate_filter(self):
        cfg = desk_config(b=1, filter_len=1)
        net_db = self.ideal_channel_net_sinr_db(cfg, "drufmc")
        assert net_db == pytest.approx(17.0, abs=0.2)

    def test_ideal_channel_drufmc_desk_filter_droop(self):
        # the desk prototype's in-band droop plus the overlap tail truncation
        # cost a measured 1.2 dB against the closed form at this scale
        net_db = self.ideal_channel_net_sinr_db(desk_config(), "drufmc")
        assert net_db == pytest.approx(17.0, abs=2.0)
        assert net_db < 17.0

    def test_paired_channels_across_waveforms(self):
        cfg = desk_exp(waveforms="otfs, ofdm-full", snr_db="30", trials="1")
        r_otfs = evaluate_point(cfg, "otfs", 500.0, 0, 0)
        r_ofdm = evaluate_point(cfg, "ofdm-full", 500.0, 0, 0)
        # same realization: the MSE-trace identity makes the mean of
        # 1/(1+SINR) match between the two full-MMSE chains; spot-check via
        # the shared channel draw instead of re-deriving metrics here
        p1 = ch.sample_eva_paths(channel_seed(cfg.seed, 0, 0), 500 / 3.6, cfg.modem.f_c_hz)
        p2 = ch.sample_eva_paths(channel_seed(cfg.seed, 0, 0), 500 / 3.6, cfg.modem.f_c_hz)
        assert np.array_equal(p1.gains, p2.gains)
        assert r_otfs.trial == r_ofdm.trial

    @pytest.mark.parametrize("pulse", ["ideal", "rrc"])
    def test_guard_override_is_that_waveforms_n_guard(self, pulse):
        # with guards nulled at the transmitter, an override must reach the
        # transmitter and receiver models as well as the score
        raw = {"guard_nulling": "tx", "pulse": pulse, "snr_db": "30", "speeds_kmh": "500",
               "trials": "1", "seed": "0"}
        by_modem = config_from_dict({**raw, "n_guard": "4"}, desk=True)
        for wf in harness.WAVEFORMS:
            by_override = config_from_dict({**raw, "n_guard_" + wf.replace("-", "_"): "4"},
                                           desk=True)
            assert (evaluate_point(by_override, wf, 500.0, 0, 0)
                    == evaluate_point(by_modem, wf, 500.0, 0, 0))
            assert by_override.modem_for(wf) == by_modem.modem
            # no override: the shared modem itself, no copy per cell
            assert all(by_override.modem_for(other) is by_override.modem
                       for other in harness.WAVEFORMS if other != wf)
        assert all(by_modem.modem_for(wf) is by_modem.modem for wf in harness.WAVEFORMS)


class TestWorkerCount:
    def test_unset_runs_serially(self):
        assert _worker_count(None) == 1
        assert _worker_count("3") == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_rejects_anything_but_a_positive_integer(self, value):
        with pytest.raises(ConfigError, match="DDMOD_THREADS must be an integer >= 1"):
            _worker_count(value)

    def test_cli_reports_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DDMOD_THREADS", "abc")
        cfg = write_config(tmp_path, DESK_LINES + "waveforms = otfs\ntrials = 1\n")
        assert main(["run", "--config", cfg]) == 2
        assert "config error: DDMOD_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("threads, trials, pools", [
        ("64", 1, []), ("64", 3, [3]), ("2", 3, [2]),
    ])
    def test_pool_is_no_larger_than_the_grid(self, monkeypatch, threads, trials, pools):
        # a fork pool starts max_workers processes at once, however few points there are
        built = []

        class Recording:
            """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

            def __init__(self, max_workers=None, initializer=None):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setenv("DDMOD_THREADS", threads)
        cfg = ExperimentConfig(modem=desk_config(), waveforms=("otfs",), snr_db=(10.0,),
                               speeds_kmh=(500.0,), trials=trials)
        rows, failures = run_sweep(cfg)
        assert built == pools
        assert len(rows) == trials and not failures


class TestRunPsd:
    def test_psd_csv_and_guard_summary(self, tmp_path):
        raw = {
            "k": "32", "n": "8", "o_s": "4", "b": "4", "filter_len": "16",
            "waveforms": "otfs", "snr_db": "10", "speeds_kmh": "500",
            "trials": "1", "seed": "2", "psd_trials": "10", "delta_oob_db": "-15",
        }
        cfg = config_from_dict(raw)
        out = tmp_path / "psd.csv"
        summary = run_psd(cfg, out_path=str(out))
        assert "otfs" in summary
        est, n_guard = summary["otfs"]
        assert 0 <= n_guard < cfg.modem.k // 2
        lines = out.read_text().splitlines()
        assert lines[0] == "waveform,freq_hz,power_db"
        assert len(lines) > 10

    def test_each_guard_count_estimated_once(self, monkeypatch):
        # table-1 K = 128: count 0, then at most log2(64) = 6 bisection steps
        cfg = ExperimentConfig(modem=ModemConfig(), waveforms=("otfs", "drufmc"), psd_trials=2)
        make_signal, estimate = harness.psd_signal, harness.psd_estimate
        estimates = []

        class Tagged:
            """The chunks of one signal(n_guard) call, tagged (waveform, n_guard)."""

            def __init__(self, tag, chunks):
                self.tag, self.chunks = tag, chunks

            def __iter__(self):
                return iter(self.chunks)

        def tagged(cfg, waveform):
            signal = make_signal(cfg, waveform)
            return lambda n_guard: Tagged((waveform, n_guard), signal(n_guard))

        def recorded(x, *args):
            est = estimate(x, *args)
            estimates.append((x.tag, est))
            return est

        monkeypatch.setattr(harness, "psd_signal", tagged)
        monkeypatch.setattr(harness, "psd_estimate", recorded)
        summary = run_psd(cfg)
        tags = [tag for tag, _ in estimates]
        assert len(set(tags)) == len(tags)
        for wf in ("otfs", "drufmc"):
            assert 1 <= sum(t[0] == wf for t in tags) <= 8
            # the spectrum returned (and written) is the search's own estimate
            assert summary[wf][0] is dict(estimates)[(wf, 0)]

    PSD_RAW = {
        "k": "32", "n": "8", "o_s": "4", "b": "4", "filter_len": "16",
        "waveforms": "otfs, drufmc", "trials": "1", "seed": "2", "psd_trials": "10",
        "delta_oob_db": "-15",
    }

    def test_concurrent_families_equal_single_family_runs(self, monkeypatch):
        # both family threads build the shared transform cache, switching often
        monkeypatch.setattr(transforms, "_CACHE", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            both = run_psd(config_from_dict(self.PSD_RAW))
        finally:
            sys.setswitchinterval(interval)
        assert list(both) == ["otfs", "drufmc"]
        for wf in both:
            alone = run_psd(config_from_dict({**self.PSD_RAW, "waveforms": wf}))
            (est, n_guard), (ref, ref_guard) = both[wf], alone[wf]
            assert np.array_equal(est.freqs_hz, ref.freqs_hz)
            assert np.array_equal(est.density, ref.density)
            assert n_guard == ref_guard

    def test_a_familys_guard_search_error_propagates_and_writes_nothing(self, tmp_path,
                                                                         monkeypatch):
        family = harness._psd_family

        def failing(cfg, waveform):
            if waveform == "drufmc":
                raise GuardSearchError("forced for drufmc")
            return family(cfg, waveform)

        monkeypatch.setattr(harness, "_psd_family", failing)
        out = tmp_path / "psd.csv"
        with pytest.raises(GuardSearchError, match="forced for drufmc"):
            run_psd(config_from_dict(self.PSD_RAW), out_path=str(out))
        assert not out.exists()

    def test_unreachable_threshold_exits_1_with_one_line(self, tmp_path, capsys):
        # this once ended in a 29-line GuardSearchError traceback
        path = write_config(tmp_path, DESK_LINES + "psd_trials = 3\ndelta_oob_db = -200\n")
        out = tmp_path / "psd.csv"
        assert main(["psd", "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        reason = r"not achievable: out-of-band level above -200\.0 dB at every guard count"
        # both families miss the threshold, and the one line names both
        assert re.fullmatch(rf"guard search failed: otfs: {reason}; drufmc: {reason}\n",
                            captured.err)

    def test_o_s_1_is_a_config_error_before_any_work(self, tmp_path, capsys, monkeypatch):
        # at O_s = 1 the Welch grid spans only the band: this once ended in a
        # "PSD grid has no out-of-band samples" traceback
        monkeypatch.setattr(harness, "psd_signal", None)    # any work would raise
        path = write_config(tmp_path, "k = 32\nn = 8\no_s = 1\nb = 4\nfilter_len = 16\n"
                                      "n_cp = 4\npsd_trials = 3\nwaveforms = otfs, drufmc\n"
                                      "snr_db = 10\nspeeds_kmh = 500\ntrials = 1\n")
        out = tmp_path / "psd.csv"
        assert main(["psd", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert re.fullmatch(r"config error: psd needs O_s >= 2: [^\n]*\n", captured.err)
        # the sweep still runs at O_s = 1
        assert main(["run", "--config", path]) == 0

    @pytest.mark.parametrize("waveforms, families", [
        ("otfs", 1), ("otfs, ofdm-full, ofdm-onetap", 1), ("drufmc, otfs, ofdm-full", 2),
    ])
    def test_one_thread_per_family(self, monkeypatch, waveforms, families):
        built, started = [], []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, **kwargs)

        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        run_psd(config_from_dict({**self.PSD_RAW, "waveforms": waveforms}))
        assert built == [families]
        assert 1 <= len(started) <= families


BLAS_PROBE = '''
import ctypes, json, os


def blas_threads():
    """{library file: thread count} of every loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, name):
                counts[os.path.basename(lib)] = getattr(handle, name)()
                break
    return counts


def report_point(args):
    """Stands in for harness._point_worker: a failure carrying the worker's counts."""
    return [(None, (os.getpid(), json.dumps(blas_threads())))]
'''

IN_MAIN = """
import json, sys, blas_probe
from ddmod import harness
def report(cfg, out_path=None):
    print(json.dumps(blas_probe.blas_threads()))
    return [], []
harness.run_sweep = report
harness.main(["run", "--config", sys.argv[1]])
"""

IN_POOL = """
import json, sys, blas_probe
from ddmod import harness
harness._point_worker = blas_probe.report_point
_, failures = harness.run_sweep(harness.load_config(sys.argv[1], desk=True))
print(json.dumps([json.loads(counts) for _, counts in failures]))
"""

AT_IMPORT = """
import json, numpy, blas_probe
before = blas_probe.blas_threads()
import ddmod, ddmod.harness
print(json.dumps([before, blas_probe.blas_threads()]))
"""

SCIPY_THEN_MAIN = """
import json, sys, numpy, scipy.linalg, blas_probe
from ddmod import harness
at_import = blas_probe.blas_threads()
def report(cfg, out_path=None):
    print(json.dumps([at_import, blas_probe.blas_threads()]))
    return [], []
harness.run_sweep = report
harness.main(["run", "--config", sys.argv[1]])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
class TestBlasThreads:
    """The CLI and its pool workers load one OpenBLAS, numpy's, and run it on one thread.

    A caller that loaded scipy's own build before ``main`` gets both builds
    pinned.  On a 1-CPU machine OpenBLAS already defaults to one thread, so
    the pinning tests pass there without showing anything.
    """

    def _probe(self, tmp_path, code, **env):
        import json
        import os
        from pathlib import Path

        import ddmod

        (tmp_path / "blas_probe.py").write_text(BLAS_PROBE)
        cfg = write_config(tmp_path, DESK_LINES + "waveforms = otfs\ntrials = 4\n"
                                                  "speeds_kmh = 500\nsnr_db = 10\n")
        src = str(Path(ddmod.__file__).resolve().parents[1])
        child_env = {k: v for k, v in os.environ.items()
                     if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DDMOD_THREADS")}
        child_env.update(env, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
        r = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True, text=True,
                           timeout=300, env=child_env, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        return json.loads(r.stdout.splitlines()[0])

    def _numpy_build(self, tmp_path, **env):
        """{numpy's OpenBLAS: the thread count it chose at import}."""
        counts = self._probe(tmp_path, AT_IMPORT, **env)[0]
        assert len(counts) == 1
        return counts

    def test_main_pins_every_openblas(self, tmp_path):
        numpy_build = self._numpy_build(tmp_path)
        assert self._probe(tmp_path, IN_MAIN) == dict.fromkeys(numpy_build, 1)

    def test_pool_workers_pin_every_openblas(self, tmp_path):
        numpy_build = self._numpy_build(tmp_path)
        per_point = self._probe(tmp_path, IN_POOL, DDMOD_THREADS="2")
        assert per_point == [dict.fromkeys(numpy_build, 1)] * 4

    def test_main_pins_scipys_build_when_the_caller_loaded_it(self, tmp_path):
        at_import, in_main = self._probe(tmp_path, SCIPY_THEN_MAIN)
        assert len(at_import) == 2          # numpy's and scipy's own builds
        assert in_main == dict.fromkeys(at_import, 1)

    def test_explicit_thread_count_is_left_as_set(self, tmp_path):
        default = self._numpy_build(tmp_path)
        chosen = self._numpy_build(tmp_path, OPENBLAS_NUM_THREADS="2")
        assert list(chosen.values()) == [min(2, *default.values())]
        assert self._probe(tmp_path, IN_MAIN, OPENBLAS_NUM_THREADS="2") == chosen
        at_import, in_main = self._probe(tmp_path, SCIPY_THEN_MAIN, OPENBLAS_NUM_THREADS="2")
        assert len(at_import) == 2 and set(at_import.values()) == set(chosen.values())
        assert in_main == at_import

    def test_import_leaves_the_library_default(self, tmp_path):
        before, after = self._probe(tmp_path, AT_IMPORT)
        assert len(before) == 1 and after == before


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "ddmod", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_run_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(DESK_LINES + "waveforms = otfs\nsnr_db = 10\nspeeds_kmh = 500\ntrials = 2\nseed = 7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = self._run("run", "--config", str(cfg), "--out", str(a))
        r2 = self._run("run", "--config", str(cfg), "--out", str(b))
        assert r1.returncode == 0 and r2.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 12\nb = 8\n")
        r = self._run("run", "--config", str(cfg))
        assert r.returncode == 2
        assert "config error" in r.stderr

    def test_missing_file_exit_code(self):
        r = self._run("run", "--config", "/nonexistent/exp.cfg")
        assert r.returncode == 2

    def test_worker_pool_matches_serial_output(self, tmp_path):
        import os

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(DESK_LINES + "waveforms = otfs, ofdm-onetap\nsnr_db = 0, 10\n"
                       "speeds_kmh = 500\ntrials = 2\nseed = 5\n")
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        r1 = self._run("run", "--config", str(cfg), "--out", str(serial))
        env = dict(os.environ, DDMOD_THREADS="2")
        r2 = subprocess.run(
            [sys.executable, "-m", "ddmod", "run", "--config", str(cfg), "--out", str(pooled)],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert r1.returncode == 0 and r2.returncode == 0, r2.stderr
        assert serial.read_bytes() == pooled.read_bytes()

    def test_desk_preset_applies_without_full_flag(self, tmp_path):
        # an empty config loads the full-scale modem, but a plain run swaps in
        # the desk dimensions unless --full is passed
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("waveforms = otfs\nsnr_db = 10\nspeeds_kmh = 500\ntrials = 1\n")
        out = tmp_path / "o.csv"
        r = self._run("run", "--config", str(cfg), "--out", str(out))
        assert r.returncode == 0
        assert out.read_text().count("\n") == 2
