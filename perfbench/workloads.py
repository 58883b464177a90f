"""Benchmark workloads: the config each one writes from a seed, the ``ddmod``
command line it runs, and the check of that command's outputs.

Each workload exercises one end of the pipeline, so that every planned
optimisation has a workload where its mechanism does most of the work and one
where it does almost none (see BENCHMARK.md next to this file):

* ``desk-sweep``: many small cells (K=32, N=8, O_s=4, RRC pulse), dominated by
  per-call overhead and small threaded BLAS calls; RRC taps are dense.
* ``full-cell``: one full-scale point for all four waveforms (ideal pulse),
  dominated by dense KN x KN Cholesky and the sparse-but-materialized taps.
* ``psd-guard``: transmit-side modulators plus Welch PSD and the guard search,
  with no channel and no MMSE.

Outputs are checked cell by cell; for ``psd-guard`` a cell is one family's
guard count together with its whole spectrum.  For a seed with a committed
reference (``reference/<workload>/<seed>.csv``, plus ``<seed>.psd.csv.gz`` for
the spectra, produced by ``make_reference.py``) every value must match to
``REL_TOL`` and guard counts exactly; for any other seed every value must be
finite and in range.  Repeated runs of one seed must agree exactly; the caller
compares their outputs.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-9
WAVEFORMS = ("otfs", "drufmc", "ofdm-full", "ofdm-onetap")
RUN_HEADER = "waveform,speed_kmh,snr_db,trial,net_sinr_db,avg_se_bps_hz,nmse,runtime_s"
PSD_HEADER = "waveform,two_n_guard"
SPECTRUM_HEADER = "waveform,freq_hz,power_db"
#: Acceptance targets for 2N_G at the -30 dB threshold, table-1 scale.
GUARD_TARGETS = {"otfs": 60, "drufmc": 36}
GUARD_SLACK = 4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "run" or "psd"
    config: str               # config file body; "{seed}" is substituted
    full: bool = False        # pass --full to `ddmod run`
    speeds: tuple = ()
    snrs: tuple = ()
    trials: int = 0
    waveforms: tuple = WAVEFORMS

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)

    def cli_args(self, config_path: str, out_path: str) -> list[str]:
        """Arguments of ``ddmod`` (after the program name) for one run."""
        if self.kind == "psd":
            return ["psd", "--config", config_path, "--out", out_path]
        return ["run", "--config", config_path, "--out", out_path] + (["--full"] if self.full else [])

    def expected_keys(self) -> list[tuple]:
        """Cell keys every run must produce, in output order."""
        if self.kind == "psd":
            return [(wf,) for wf in self.waveforms]
        return sorted(
            (wf, _num(sp), _num(sn), str(t))
            for wf, sp, sn, t in product(self.waveforms, self.speeds, self.snrs, range(self.trials))
        )


def _num(x: float) -> str:
    return f"{x:.10g}"


def _axes(speeds, snrs, trials, waveforms=WAVEFORMS) -> str:
    return (
        f"waveforms = {', '.join(waveforms)}\n"
        f"speeds_kmh = {', '.join(_num(s) for s in speeds)}\n"
        f"snr_db = {', '.join(_num(s) for s in snrs)}\n"
        f"trials = {trials}\n"
        "seed = {seed}\n"
    )


_DESK = dict(speeds=(50.0, 500.0), snrs=(0.0, 10.0, 20.0, 30.0), trials=5)
_FULL = dict(speeds=(500.0,), snrs=(20.0,), trials=1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-sweep",
            kind="run",
            config="# desk scale: the run subcommand applies the K=32, N=8, O_s=4 preset\n"
                   "pulse = rrc\n" + _axes(**_DESK),
            **_DESK,
        ),
        Workload(
            name="full-cell",
            kind="run",
            full=True,
            config="# table-1 scale, ideal pulse\n" + _axes(**_FULL),
            **_FULL,
        ),
        Workload(
            name="psd-guard",
            kind="psd",
            waveforms=("otfs", "drufmc"),
            config="# table-1 scale, acceptance guard-search settings\n"
                   "waveforms = otfs, drufmc\npsd_trials = 100\nseed = {seed}\n",
        ),
    )
}


# Parsing ---------------------------------------------------------------------

def parse_run_csv(text: str) -> dict[tuple, list[str]]:
    """``ddmod run`` CSV to {(waveform, speed, snr, trial): [net_sinr, se, nmse, runtime]}.

    A duplicated key maps to ``None`` so it counts as a failure.
    """
    lines = text.splitlines()
    if not lines or lines[0] != RUN_HEADER:
        return {}
    rows: dict = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 8:
            continue
        key = tuple(parts[:4])
        rows[key] = None if key in rows else parts[4:]
    return rows


def parse_psd_stdout(text: str) -> dict[str, str]:
    """``ddmod psd`` summary lines ``<wf>: 2N_G = <n> nulled ...`` to {wf: n}."""
    guards = {}
    for line in text.splitlines():
        head, sep, rest = line.partition(": 2N_G = ")
        if sep and rest.split(" ", 1)[0].isdigit():
            guards[head.strip()] = rest.split(" ", 1)[0]
    return guards


def psd_rows(guards: dict[str, str], spectrum_text: str) -> dict[tuple, list]:
    """Guard counts and a ``ddmod psd`` spectrum CSV to
    {(wf,): [n, [(freq_hz, power_db), ...]]}; a family without spectrum lines
    gets an empty spectrum, so it fails the check."""
    lines = spectrum_text.splitlines()
    spectra: dict[str, list] = {}
    if lines and lines[0] == SPECTRUM_HEADER:
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) == 3:
                spectra.setdefault(parts[0], []).append((parts[1], parts[2]))
    return {(wf,): [n, spectra.get(wf, [])] for wf, n in guards.items()}


def child_rows(workload: Workload, stdout: str, out_text: str) -> dict[tuple, list]:
    """Parsed cells of one ``ddmod`` run."""
    if workload.kind == "run":
        return parse_run_csv(out_text)
    return psd_rows(parse_psd_stdout(stdout), out_text)


def to_reference_csv(workload: Workload, rows: dict[tuple, list]) -> str:
    """Rows in the committed reference format: the CLI's CSV for `run`, and
    the guard counts alone for `psd` (its spectrum CSV is stored as written)."""
    if workload.kind == "psd":
        body = [f"{key[0]},{rows[key][0]}" for key in workload.expected_keys() if rows.get(key)]
        return "\n".join([PSD_HEADER] + body) + "\n"
    body = [",".join(list(key) + rows[key]) for key in workload.expected_keys() if rows.get(key)]
    return "\n".join([RUN_HEADER] + body) + "\n"


def spectrum_reference_path(workload: Workload, seed: int) -> Path:
    return REFERENCE_DIR / workload.name / f"{seed}.psd.csv.gz"


def load_reference(workload: Workload, seed: int) -> dict[tuple, list] | None:
    path = REFERENCE_DIR / workload.name / f"{seed}.csv"
    if not path.is_file():
        return None
    text = path.read_text(encoding="utf-8")
    if workload.kind == "run":
        return parse_run_csv(text)
    guards = dict(line.split(",", 1) for line in text.splitlines()[1:])
    spectrum = spectrum_reference_path(workload, seed)
    spectrum_text = gzip.decompress(spectrum.read_bytes()).decode() if spectrum.is_file() else ""
    return psd_rows(guards, spectrum_text)


# Checking --------------------------------------------------------------------

def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + 1e-300


def _in_range(workload: Workload, key: tuple, values: list) -> bool:
    if workload.kind == "psd":
        target = GUARD_TARGETS.get(key[0])
        n_guard, spectrum = values
        # power is in dB relative to the spectrum's own peak, so never above 0
        return (target is not None and abs(int(n_guard) - target) <= GUARD_SLACK
                and bool(spectrum)
                and all(math.isfinite(float(f)) and math.isfinite(float(p)) and float(p) <= 0.0
                        for f, p in spectrum))
    net_sinr, se, nmse = (float(v) for v in values[:3])
    return all(math.isfinite(v) for v in (net_sinr, se, nmse)) and se >= 0.0 and nmse >= 0.0


def _matches(workload: Workload, values: list, ref: list) -> bool:
    if workload.kind == "psd":
        (n_guard, spectrum), (ref_guard, ref_spectrum) = values, ref
        return (n_guard == ref_guard and len(spectrum) == len(ref_spectrum)
                and all(_close(f, rf) and _close(p, rp)
                        for (f, p), (rf, rp) in zip(spectrum, ref_spectrum)))
    # runtime_s (last column) is ignored
    return len(ref) == len(values) and all(_close(a, b) for a, b in zip(values[:3], ref[:3]))


def failed_keys(workload: Workload, rows: dict, reference: dict | None) -> list[tuple]:
    """Expected cells that are missing, duplicated, off-reference or, for a
    seed without a reference, out of range.

    Unexpected extra cells are returned too, so they count as failures.
    """
    bad = []
    for key in workload.expected_keys():
        values = rows.get(key)
        try:
            if values is None:
                ok = False
            elif reference is None:
                ok = _in_range(workload, key, values)
            else:
                ok = key in reference and _matches(workload, values, reference[key])
        except ValueError:
            ok = False
        if not ok:
            bad.append(key)
    expected = set(workload.expected_keys())
    bad.extend(key for key in rows if key not in expected)
    return bad
