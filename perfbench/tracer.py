"""Outside-in span tracer for the ``ddmod`` layers.

:class:`Tracer` wraps the public functions listed in :data:`LAYERS` with
timing wrappers that live here, so the library itself is not edited.  Each
function is replaced by identity in every ``ddmod.*`` namespace that binds it
(``otfs`` and ``drufmc`` re-import ``ofdm.apply_channel``; ``harness`` imports
``metrics`` names directly), and a listed function that no longer exists is
reported as absent instead of failing.  Spans (name, start, end, parent, cell,
attributes) stay in memory and are written out once, at the end.

Run as a script, it traces one ``ddmod`` command line in-process::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json run --config exp.cfg
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

PACKAGE = "ddmod"

LAYERS = {
    "harness": ("evaluate_point", "run_sweep", "run_psd", "load_config"),
    "channel": ("sample_eva_paths", "realize", "materialize_taps", "channel_matrices",
                "ChannelMatrixSet.matrix"),
    "ofdm": ("ofdm_modulate", "apply_channel", "ofdm_demodulate", "per_symbol_ft_channel",
             "ofdm_full_effective_channel", "ofdm_onetap_sinr", "ofdm_onetap_fde"),
    "otfs": ("otfs_modulate", "otfs_demodulate", "otfs_effective_channel"),
    "drufmc": ("drufmc_modulate", "ufmc_modulate_ft", "drufmc_demodulate",
               "drufmc_effective_channel"),
    "metrics": ("sinr_map", "mmse_detect", "psd_estimate", "guard_count_for_threshold",
                "qpsk_grid"),
    "transforms": ("isfft", "sfft", "ufmc_precoder", "oversampled_dft"),
}

WAVEFORMS = ("otfs", "drufmc", "ofdm-full", "ofdm-onetap")

CELL = "harness.evaluate_point"

# name, unit, better: every metric a traced run reports, in output order.
PER_LAYER = [
    (f"{layer}.{fn}.{stat}", unit, "lower")
    for layer, fns in LAYERS.items()
    for fn in fns
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
] + [
    (f"{CELL}.{wf}.{q}", "s", "lower") for wf in WAVEFORMS for q in ("p50_s", "p90_s")
] + [
    ("channel.realize.per_point", "calls/point", "lower"),
    ("channel.materialize_taps.mb", "MB", "lower"),
    ("channel.ChannelMatrixSet.matrix.hit_ratio", "ratio", "higher"),
    ("ofdm.per_symbol_ft_channel.per_cell", "calls/cell", "lower"),
    ("metrics.sinr_map.operand_mb", "MB", "lower"),
    ("metrics.guard_count_for_threshold.psd_evals", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


# Probes: extra span attributes taken from a call's arguments (before the call)
# or its result (after).  A probe that no longer fits the code records nothing.

def _cell_attrs(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"waveform": bound["waveform"],
            "point": [float(bound["speed_kmh"]), int(bound["snr_index"]), int(bound["trial"])]}


def _matrix_hit(fn, args, kwargs):
    cache = getattr(args[0], "_cache", None)
    return {} if not isinstance(cache, dict) else {"hit": args[1] in cache}


def _operand_mb(fn, args, kwargs):
    c = args[0]
    return {"mb": getattr(c, "matrix", c).nbytes / 1e6}


def _taps_mb(result):
    return {"mb": result.taps.nbytes / 1e6}


BEFORE = {CELL: _cell_attrs, "channel.ChannelMatrixSet.matrix": _matrix_hit,
          "metrics.sinr_map": _operand_mb}
AFTER = {"channel.materialize_taps": _taps_mb}


class Tracer:
    """Installs span-recording wrappers around the listed ``ddmod`` functions."""

    def __init__(self, layers=LAYERS, package=PACKAGE, clock=time.perf_counter):
        self.layers = layers
        self.package = package
        self.clock = clock
        self.spans = []       # [name, start, end, parent index, cell index, attrs]
        self.absent = []
        self._stack = []
        self._patched = []    # (owner, attribute, original)

    def install(self):
        importlib.import_module(self.package)
        for layer, names in self.layers.items():
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for qualname in names:
                if not self._patch(module, f"{layer}.{qualname}", qualname):
                    self.absent.append(f"{layer}.{qualname}")
        return self

    def _patch(self, module, name, qualname) -> bool:
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            fn = vars(owner).get(attr) if isinstance(owner, type) else None
            if not inspect.isfunction(fn):
                return False
            self._set(owner, attr, self._wrap(name, fn))
            return True
        fn = getattr(module, attr, None)
        if not inspect.isfunction(fn):
            return False
        wrapper = self._wrap(name, fn)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)
        return True

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            cell = index if name == CELL else (spans[parent][4] if parent is not None else None)
            attrs = {}
            if before is not None:
                try:
                    attrs = before(fn, args, kwargs)
                except (TypeError, KeyError, AttributeError, IndexError, ValueError):
                    pass
            span = [name, 0.0, 0.0, parent, cell, attrs]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                try:
                    attrs.update(after(result))
                except (TypeError, KeyError, AttributeError, ValueError):
                    pass
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


# Analysis --------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run; 0 where nothing ran."""
    selfs = self_times(spans)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        name = span[0]
        by_name.setdefault(name, []).append(i)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        out[f"{name}.total_s"] += span[2] - span[1]

    cells = [spans[i] for i in by_name.get(CELL, [])]
    for wf in WAVEFORMS:
        durations = [s[2] - s[1] for s in cells if s[5].get("waveform") == wf]
        out[f"{CELL}.{wf}.p50_s"] = _quantile(durations, 50)
        out[f"{CELL}.{wf}.p90_s"] = _quantile(durations, 90)
    points = {tuple(s[5]["point"]) for s in cells if "point" in s[5]}
    if points:
        out["channel.realize.per_point"] = out["channel.realize.calls"] / len(points)
    if cells:
        out["ofdm.per_symbol_ft_channel.per_cell"] = out["ofdm.per_symbol_ft_channel.calls"] / len(cells)
    for metric, fn in (("channel.materialize_taps.mb", "channel.materialize_taps"),
                       ("metrics.sinr_map.operand_mb", "metrics.sinr_map")):
        out[metric] = max((spans[i][5].get("mb", 0.0) for i in by_name.get(fn, [])), default=0.0)
    hits = [spans[i][5]["hit"] for i in by_name.get("channel.ChannelMatrixSet.matrix", [])
            if "hit" in spans[i][5]]
    if hits:
        out["channel.ChannelMatrixSet.matrix.hit_ratio"] = sum(hits) / len(hits)
    out["metrics.guard_count_for_threshold.psd_evals"] = float(sum(
        _has_ancestor(spans, i, "metrics.guard_count_for_threshold")
        for i in by_name.get("metrics.psd_estimate", [])
    ))
    if untraced_wall_s > 0:
        out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    return out


def main(argv) -> int:
    spans_path, cli = argv[0], argv[1:]
    tracer = Tracer().install()
    harness = importlib.import_module(f"{PACKAGE}.harness")
    try:
        return harness.main(cli)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
