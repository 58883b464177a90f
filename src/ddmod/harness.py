"""Experiment runner: config parsing, seeded SNR x speed x waveform sweeps,
PSD / guard-band experiments, and the ``ddmod`` command line interface.

The compared waveforms are the rows of :data:`WAVEFORMS`; each module owns
its link from symbols to SINR grid and estimates.  Waveforms at the same
(speed, SNR, trial) grid point are evaluated on the same channel realization,
so waveform comparisons are paired and free of Monte-Carlo noise: every link
takes the point's one :class:`~ddmod.ofdm.LinkChannel` (:func:`grid_point`),
which builds the realization, its frequency-time stack and the stack's MMSE
factor once.  Output rows are sorted deterministically before writing;
rerunning an identical config and seed reproduces the CSV byte for byte.

The PSD experiment hands the guard search a ``spectrum(n_guard)`` function:
the Welch estimate of one family's ``psd_trials``-frame signal, streamed to
it a chunk of frames at a time (:func:`psd_signal`) and computed at most once
per guard count.  The two families' searches run on one thread each.  The
oracles these routes are checked against live in ``tests/``.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from functools import cache

import numpy as np

from . import channel as ch
from . import drufmc, ofdm, otfs
from .config import ConfigError, ModemConfig, desk_config
from .metrics import (
    GuardSearchError,
    avg_spectral_efficiency,
    guard_count_for_threshold,
    net_sinr,
    normalized_mse,
    psd_estimate,
    qpsk_grid,
    sinr_map,  # unused here; perfbench/test_perfbench.py checks that its tracer rebinds it
)
from .transforms import isfft, vec

#: Waveform name -> (CP-bearing, link).  A link maps (x, channel, cfg, sigma2,
#: seed), with ``channel`` an ``ofdm.LinkChannel``, to the (K, N) SINR and
#: estimate grids.  The CP flag picks the air-time efficiency
#: (``cp_efficiency()`` or 1) and the PSD family: the CP-OFDM transmitter
#: ("otfs") or the filtered one ("drufmc").  The order fixes each waveform's
#: cell seed.
WAVEFORMS = {
    "otfs": (True, otfs.otfs_link),
    "drufmc": (False, drufmc.drufmc_link),
    "ofdm-full": (True, ofdm.ofdm_full_link),
    "ofdm-onetap": (True, ofdm.ofdm_onetap_link),
}

CSV_HEADER = "waveform,speed_kmh,snr_db,trial,net_sinr_db,avg_se_bps_hz,nmse,runtime_s"

#: Config key -> parser, one for each ModemConfig field, by its annotation.
_PARSERS = {"int": int, "int | None": int, "float": float, "str": str}
_MODEM_KEYS = {f.name: _PARSERS[f.type] for f in fields(ModemConfig)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description: modem parameters plus experiment axes and seeds."""

    modem: ModemConfig = field(default_factory=ModemConfig)
    waveforms: tuple = tuple(WAVEFORMS)
    snr_db: tuple = (0.0, 10.0, 20.0, 30.0)
    speeds_kmh: tuple = (50.0, 500.0)
    trials: int = 50
    seed: int = 0
    psd_trials: int = 100
    n_guard_by_waveform: dict = field(default_factory=dict)
    timing: bool = False

    def __post_init__(self):
        for name in ("waveforms", "snr_db", "speeds_kmh"):
            axis = getattr(self, name)
            if len(axis) == 0:
                raise ConfigError(f"{name} must be non-empty")
            # the CSV keys rows by the .10g text of an axis value, so it must be distinct too
            printed = axis if name == "waveforms" else [f"{v:.10g}" for v in axis]
            if len(set(axis)) != len(axis) or len(set(printed)) != len(axis):
                raise ConfigError(f"{name} lists a value twice: {axis}")
        for speed in self.speeds_kmh:
            if not (np.isfinite(speed) and speed >= 0):
                raise ConfigError(f"speeds_kmh must be finite and >= 0, got {speed}")
            if speed / 3.6 >= ch.SPEED_OF_LIGHT:
                raise ConfigError(f"speeds_kmh must be below the speed of light, got {speed}")
        for snr in self.snr_db:
            if not np.isfinite(snr):
                raise ConfigError(f"snr_db must be finite, got {snr}")
            noise_variance(snr)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.psd_trials < 1:
            raise ConfigError(f"psd_trials must be >= 1, got {self.psd_trials}")
        for wf in self.waveforms:
            if wf not in WAVEFORMS:
                raise ConfigError(f"unknown waveform {wf!r}; expected one of {tuple(WAVEFORMS)}")
        for wf in self.n_guard_by_waveform:
            if wf not in WAVEFORMS:
                raise ConfigError(
                    f"guard override for unknown waveform {wf!r}; expected one of {tuple(WAVEFORMS)}"
                )
            try:
                self.modem_for(wf)
            except ConfigError as exc:
                raise ConfigError(f"guard override for {wf}: {exc}") from None

    def modem_for(self, waveform: str) -> ModemConfig:
        """``modem`` with the waveform's guard override, if any, as its ``n_guard``.

        Without an override this is ``modem`` itself, not a copy.
        """
        if waveform not in self.n_guard_by_waveform:
            return self.modem
        return replace(self.modem, n_guard=self.n_guard_by_waveform[waveform])


def noise_variance(snr_db: float) -> float:
    """sigma^2 = 10^(-snr_db/10) of the unit-power transmitter; a ConfigError unless finite, > 0."""
    try:
        sigma2 = 1.0 / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):     # 10^(snr/10) overflows or underflows to 0
        sigma2 = 0.0
    if not 0.0 < sigma2 < float("inf"):
        raise ConfigError(f"snr_db = {snr_db} is out of range: 10^(-snr_db/10) must be finite, > 0")
    return sigma2


_INT_KEYS = {"trials", "seed", "psd_trials"}
_LIST_KEYS = {"waveforms", "snr_db", "speeds_kmh"}


def load_config(path: str, desk: bool = False) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file with ``#`` comments.

    Unset modem keys fall back to the full-scale defaults, or to the
    :func:`~ddmod.config.desk_config` preset if ``desk`` is set; all invariants
    are validated and violations name the offending constraint.  A key set
    twice (``-`` and ``_`` are the same character) is an error.
    """
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:   # a byte-order mark is not a key
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        raw[key], line_of[key] = value, lineno
    return config_from_dict(raw, origin=path, desk=desk)


def config_from_dict(raw: dict, origin: str = "<dict>", desk: bool = False) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from string key/values.

    The modem is ``desk_config(**modem keys)`` if ``desk`` is set, else
    ``ModemConfig(**modem keys)``.
    """
    modem_kwargs = {}
    exp_kwargs: dict = {}
    guard_over = {}
    for key, value in raw.items():
        try:
            if key.startswith("n_guard_"):
                wf = key[len("n_guard_"):].replace("_", "-")
                guard_over[wf] = int(value)
            elif key in _MODEM_KEYS:
                modem_kwargs[key] = _MODEM_KEYS[key](value)
            elif key in _INT_KEYS:
                exp_kwargs[key] = int(value)
            elif key in _LIST_KEYS:
                parts = [p.strip() for p in value.split(",") if p.strip()]
                if key == "waveforms":
                    exp_kwargs[key] = tuple(parts)
                else:
                    exp_kwargs[key] = tuple(float(p) for p in parts)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{origin}: bad value for {key!r}: {exc}") from exc
    modem = (desk_config if desk else ModemConfig)(**modem_kwargs)
    return ExperimentConfig(modem=modem, n_guard_by_waveform=guard_over, **exp_kwargs)


@dataclass(frozen=True)
class ResultRow:
    waveform: str
    speed_kmh: float
    snr_db: float
    trial: int
    net_sinr_db: float
    avg_se_bps_hz: float
    nmse: float
    runtime_s: float

    def to_csv(self) -> str:
        return (
            f"{self.waveform},{self.speed_kmh:.10g},{self.snr_db:.10g},{self.trial},"
            f"{self.net_sinr_db:.10g},{self.avg_se_bps_hz:.10g},{self.nmse:.10g},"
            f"{self.runtime_s:.3f}"
        )


def channel_seed(base_seed: int, snr_index: int, trial: int):
    """Entropy for the trial channel.

    Neither the waveform nor the speed enters the seed: waveforms at one grid
    point share a realization, and the two speed curves see the same gains,
    delays and ray angles with only the Doppler scale changing, so waveform
    and speed comparisons are both free of Monte-Carlo noise.
    """
    return np.random.SeedSequence((int(base_seed), int(snr_index), int(trial)))


def _trial_paths(cfg: ExperimentConfig, speed_kmh: float, snr_index: int, trial: int) -> ch.PathSet:
    seed = channel_seed(cfg.seed, snr_index, trial)
    return ch.sample_eva_paths(seed, speed_kmh / 3.6, cfg.modem.f_c_hz)


def grid_point(cfg: ExperimentConfig, speed_kmh: float, snr_index: int,
               trial: int) -> ofdm.LinkChannel:
    """The one channel of a (speed, SNR, trial) grid point, realized from ``cfg.modem``."""
    return ofdm.LinkChannel(_trial_paths(cfg, speed_kmh, snr_index, trial), cfg.modem)


def evaluate_point(
    cfg: ExperimentConfig, waveform: str, speed_kmh: float, snr_index: int, trial: int,
    point: ofdm.LinkChannel | None = None,
) -> ResultRow:
    """Metrics for one (waveform, speed, SNR, trial) grid cell.

    The waveform's link runs on the trial's channel ``point`` (a fresh
    :func:`grid_point` if None); the MMSE links use the structured routes,
    so no KN x KN effective channel is built.  The link and the score take
    ``cfg.modem_for(waveform)``; the point is realized from ``cfg.modem``, as
    the guard count does not enter the channel.  The transmitter has unit
    power, so the SNR fixes the noise variance alone.
    """
    start = time.perf_counter()
    modem = cfg.modem_for(waveform)
    snr_db = cfg.snr_db[snr_index]
    sigma2 = noise_variance(snr_db)
    with_cp, link = WAVEFORMS[waveform]
    if point is None:
        point = grid_point(cfg, speed_kmh, snr_index, trial)

    # deterministic per-cell stream for symbols and noise
    sym_rng, noise_ss = _cell_streams(cfg, waveform, speed_kmh, snr_index, trial)
    x_dd = qpsk_grid(sym_rng, modem.k, modem.n)
    sinr, x_hat = link(x_dd, point, modem, sigma2, noise_ss)
    efficiency = modem.cp_efficiency() if with_cp else 1.0
    return ResultRow(
        waveform=waveform,
        speed_kmh=speed_kmh,
        snr_db=snr_db,
        trial=trial,
        net_sinr_db=net_sinr(sinr, modem.n_guard),
        avg_se_bps_hz=avg_spectral_efficiency(sinr, efficiency, modem.n_guard),
        nmse=normalized_mse(vec(x_hat), vec(x_dd)),
        runtime_s=(time.perf_counter() - start) if cfg.timing else 0.0,
    )


def _cell_streams(cfg, waveform, speed_kmh, snr_index, trial):
    ss = np.random.SeedSequence(
        (int(cfg.seed), 0x5EED, list(WAVEFORMS).index(waveform),
         int(round(speed_kmh * 1000)), int(snr_index), int(trial))
    )
    sym_ss, noise_ss = ss.spawn(2)
    return np.random.default_rng(sym_ss), noise_ss


def _point_worker(args):
    """(row, None) or (None, (cell, traceback)) for each waveform at one grid point.

    The CP-bearing cells run first; the point then drops its frequency-time
    stack and factors (:meth:`~ddmod.ofdm.LinkChannel.release_cp`), so the
    CP-less cells do not hold them.  Results come back in ``cfg.waveforms`` order.
    """
    cfg, (speed, snr_index, trial) = args
    point = grid_point(cfg, speed, snr_index, trial)
    results = {}
    for waveform in sorted(cfg.waveforms, key=lambda wf: not WAVEFORMS[wf][0]):
        if not WAVEFORMS[waveform][0]:
            point.release_cp()
        try:
            results[waveform] = (evaluate_point(cfg, waveform, speed, snr_index, trial, point),
                                 None)
        except Exception:  # recorded with its traceback, not fatal for the sweep
            results[waveform] = (None, ((waveform, speed, snr_index, trial),
                                        traceback.format_exc()))
    return [results[wf] for wf in cfg.waveforms]


#: Variables through which a user chooses BLAS threads; if one is set, BLAS is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
#: Thread-count setters of the OpenBLAS builds numpy (64-bit ints) and scipy ship.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas() -> None:
    """Set every loaded OpenBLAS to one thread unless the user chose a count.

    The sweep's BLAS calls are small, and a second thread spins longer than
    it helps; ``DDMOD_THREADS`` spreads grid points over processes instead.
    ddmod loads only numpy's OpenBLAS; scipy's own build is pinned too, but
    only if the caller loaded it.  Builds are found in /proc/self/maps (a
    no-op where that file does not exist).  Called by :func:`main`, by the
    pool's worker initializer, by :func:`run_psd` before it starts two
    family threads and once per test session, never at import.
    """
    if any(var in os.environ for var in _BLAS_THREAD_VARS):
        return
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in _BLAS_SETTERS:
            if hasattr(handle, name):
                getattr(handle, name)(1)
                break


def _worker_count(value: str | None) -> int:
    """Process count from a DDMOD_THREADS value; unset means serial."""
    if value is None:
        return 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"DDMOD_THREADS must be an integer >= 1, got {value!r}")
    return workers


def run_sweep(cfg: ExperimentConfig, out_path: str | None = None):
    """Run the full grid; returns (rows, failures) and optionally writes CSV.

    Each (speed, SNR, trial) point evaluates all its waveforms on one
    :func:`grid_point`.  Rows are sorted by (waveform, speed, SNR, trial)
    before writing so the output is independent of execution order;
    DDMOD_THREADS > 1 enables a process pool over grid points, each worker
    on one BLAS thread.  A failure is (cell, formatted traceback).
    """
    workers = _worker_count(os.environ.get("DDMOD_THREADS"))
    tasks = [
        (cfg, (speed, si, t))
        for speed in cfg.speeds_kmh
        for si in range(len(cfg.snr_db))
        for t in range(cfg.trials)
    ]
    workers = min(workers, len(tasks))          # a fork pool starts all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import

        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas) as pool:
            results = [r for point in pool.map(_point_worker, tasks) for r in point]
    else:
        results = [r for task in tasks for r in _point_worker(task)]

    rows = [r for r, err in results if r is not None]
    failures = [err for r, err in results if err is not None]
    rows.sort(key=lambda r: (r.waveform, r.speed_kmh, r.snr_db, r.trial))

    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(row.to_csv() + "\n")
    return rows, failures


# PSD / guard-band experiment -------------------------------------------------

#: Bytes of frames modulated, and handed to the Welch estimate, at a time by :func:`psd_signal`.
_PSD_CHUNK_BYTES = 1 << 20


def psd_signal(cfg: ExperimentConfig, waveform: str):
    """Transmit signals of one PSD family for the guard search, one per guard count.

    Returns ``signal(n_guard)``: a generator of the ``psd_trials`` frames with
    2*n_guard edge subcarriers nulled, one after another, as 1-D chunks of
    about ``_PSD_CHUNK_BYTES`` (whole frames, at least one).  The seeded QPSK
    grids are drawn in frame order from ``default_rng(cfg.seed)`` and
    isfft'ed once, as one stack; each chunk is modulated as the estimate asks
    for it, so the whole signal is never held.
    """
    modem = cfg.modem
    with_cp = WAVEFORMS[waveform][0]
    modulate = ofdm.ofdm_modulate if with_cp else drufmc.ufmc_modulate_ft
    rng = np.random.default_rng(cfg.seed)
    grids = isfft(np.stack([qpsk_grid(rng, modem.k, modem.n) for _ in range(cfg.psd_trials)]))
    frame_len = modem.n * (modem.block_len if with_cp else modem.k * modem.o_s)
    chunk = max(1, _PSD_CHUNK_BYTES // (16 * frame_len))

    def signal(n_guard):
        for start in range(0, len(grids), chunk):
            yield modulate(grids[start:start + chunk], modem, n_guard).reshape(-1)

    return signal


def _psd_family(cfg: ExperimentConfig, waveform: str):
    """(unnulled PsdEstimate, guard count) of one family, each guard count estimated once.

    The spectra are cached per guard count, so the unnulled spectrum is the
    guard search's own first estimate.
    """
    signal = psd_signal(cfg, waveform)
    spectrum = cache(lambda n_guard: psd_estimate(signal(n_guard), cfg.modem))
    n_guard = guard_count_for_threshold(spectrum, cfg.modem)
    return spectrum(0), n_guard


def run_psd(cfg: ExperimentConfig, out_path: str | None = None):
    """PSD and guard-count summary per waveform family.

    Returns {waveform: (PsdEstimate, n_guard)} and optionally writes a
    ``waveform,freq_hz,power_db`` CSV of the unnulled spectra.  The families
    are independent searches (:func:`_psd_family`) and run on one thread each;
    numpy's FFTs and BLAS release the GIL.  With two families, BLAS is first
    set to one thread (:func:`_pin_blas`), so the two threads do not
    oversubscribe the cores.
    Results are collected in family order, and a family's error propagates
    before anything is written.  O_s = 1 is a :class:`ConfigError`, raised
    before any work: its PSD grid has no out-of-band bin.  If guard searches
    fail, one :class:`GuardSearchError` names every failed family, each with
    its message, in family order.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off ddmod's import path

    if cfg.modem.o_s < 2:
        raise ConfigError("psd needs O_s >= 2: at O_s = 1 the PSD grid spans only the "
                          "nominal band, so no bin lies out of band")
    families = dict.fromkeys("otfs" if WAVEFORMS[wf][0] else "drufmc" for wf in cfg.waveforms)
    if len(families) > 1:
        _pin_blas()
    with ThreadPoolExecutor(max_workers=len(families)) as pool:
        futures = {wf: pool.submit(_psd_family, cfg, wf) for wf in families}
    out, failed = {}, []
    for wf, future in futures.items():
        try:
            out[wf] = future.result()
        except GuardSearchError as exc:
            failed.append(f"{wf}: {exc}")
    if failed:
        raise GuardSearchError("; ".join(failed))
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("waveform,freq_hz,power_db\n")
            for wf, (est, _) in out.items():
                for f, p in zip(est.freqs_hz, est.db_rel_peak()):
                    fh.write(f"{wf},{f:.10g},{p:.10g}\n")
    return out


# CLI -------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmod",
        description="Delay-Doppler multicarrier waveform benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="SNR x speed x waveform metric sweep")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--full", action="store_true",
                       help="run the full-scale configuration instead of the desk preset")
    run_p.add_argument("--out", default=None, help="CSV output path")
    run_p.add_argument("--timing", action="store_true",
                       help="record wall-clock runtimes (breaks byte-level reproducibility)")

    psd_p = sub.add_parser("psd", help="PSD and guard-count experiment")
    psd_p.add_argument("--config", required=True)
    psd_p.add_argument("--out", required=True, help="CSV output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _pin_blas()
    run = args.command == "run"
    try:
        out_dir = os.path.dirname(args.out or "") or "."
        if not os.path.isdir(out_dir):
            raise ConfigError(f"--out directory {out_dir} does not exist")
        if args.out and os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out} is a directory")
        if run:
            cfg = replace(load_config(args.config, desk=not args.full), timing=args.timing)
            rows, failures = run_sweep(cfg, out_path=args.out)
        else:
            cfg = load_config(args.config)
            summary = run_psd(cfg, out_path=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GuardSearchError as exc:
        print(f"guard search failed: {exc}", file=sys.stderr)
        return 1

    if run:
        for cell, err in failures:
            print(f"row failed {cell}:\n{err}", file=sys.stderr, end="")
        print(f"{len(rows)} rows" + (f" -> {args.out}" if args.out else ""))
        return 1 if failures else 0
    for wf, (_, n_guard) in summary.items():
        print(f"{wf}: 2N_G = {2 * n_guard} nulled subcarriers for "
              f"{cfg.modem.delta_oob_db:g} dB out-of-band threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
