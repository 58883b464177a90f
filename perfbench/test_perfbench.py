"""Tests of the benchmark's own code: span arithmetic, the tracer's handling of
moved or deleted functions, and the output check.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, failed_keys, load_reference  # noqa: E402


def span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, None, attrs or {}]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),      # overlaps a: union of children is [1, 5]
        span("inner", 1.5, 2.0, parent=1),
        span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.5, 3.0, 0.5, 3.0])


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.layer`` defines f -> g; ``fakepkg.other`` re-imports g by name."""
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")

    def g(x):
        return x + 1

    def f(x):
        return layer.g(x) * 2

    class Box:
        def get(self):
            return 3

    layer.f, layer.g, layer.Box = f, g, Box
    other = types.ModuleType("fakepkg.other")
    other.g = g
    for name, mod in (("fakepkg", pkg), ("fakepkg.layer", layer), ("fakepkg.other", other)):
        monkeypatch.setitem(sys.modules, name, mod)
    return layer, other


def ticking_clock():
    t = iter(range(1000))
    return lambda: float(next(t))


def test_tracer_wraps_by_identity_and_reports_absent(fake_package):
    layer, other = fake_package
    original_g = layer.g
    t = tracer.Tracer(
        layers={"layer": ("f", "g", "Box.get", "Box.gone", "deleted"), "moved": ("h",)},
        package="fakepkg",
        clock=ticking_clock(),
    ).install()
    try:
        assert sorted(t.absent) == ["layer.Box.gone", "layer.deleted", "moved.h"]
        assert other.g is layer.g is not original_g
        assert layer.f(1) == 4
        assert other.g(1) == 2
        assert layer.Box().get() == 3
    finally:
        t.uninstall()
    assert other.g is layer.g is original_g

    names = [s[0] for s in t.spans]
    assert names == ["layer.f", "layer.g", "layer.g", "layer.Box.get"]
    assert [s[3] for s in t.spans] == [None, 0, None, None]
    # f spans ticks 0..3 and its child g spans 1..2
    assert tracer.self_times(t.spans)[:2] == [2.0, 1.0]


def test_layer_metrics_of_a_synthetic_trace():
    cell = tracer.CELL
    spans = [
        span(cell, 0.0, 4.0, attrs={"waveform": "otfs", "point": [500.0, 0, 0]}),
        span("channel.realize", 0.0, 1.0, parent=0),
        span("channel.materialize_taps", 0.0, 0.5, parent=1, attrs={"mb": 12.5}),
        span("channel.ChannelMatrixSet.matrix", 1.0, 1.5, parent=0, attrs={"hit": False}),
        span("channel.ChannelMatrixSet.matrix", 1.5, 1.6, parent=0, attrs={"hit": True}),
        span(cell, 4.0, 6.0, attrs={"waveform": "drufmc", "point": [500.0, 0, 0]}),
        span("channel.realize", 4.0, 5.0, parent=5),
        span("metrics.guard_count_for_threshold", 6.0, 9.0),
        span("metrics.psd_estimate", 6.0, 7.0, parent=7),
        span("metrics.psd_estimate", 7.0, 8.0, parent=7),
        span("metrics.psd_estimate", 9.0, 10.0),
    ]
    out = tracer.layer_metrics(spans, traced_wall_s=12.0, untraced_wall_s=10.0)
    assert set(out) == {name for name, _, _ in tracer.PER_LAYER}
    assert out[f"{cell}.calls"] == 2
    assert out[f"{cell}.total_s"] == 6.0
    assert out[f"{cell}.self_s"] == pytest.approx(6.0 - 1.6 - 1.0)
    assert out[f"{cell}.otfs.p50_s"] == 4.0
    assert out["channel.realize.per_point"] == 2.0
    assert out["channel.materialize_taps.mb"] == 12.5
    assert out["channel.ChannelMatrixSet.matrix.hit_ratio"] == 0.5
    assert out["metrics.guard_count_for_threshold.psd_evals"] == 2
    assert out["trace.overhead_ratio"] == pytest.approx(1.2)
    assert out["otfs.otfs_effective_channel.calls"] == 0


def test_tracer_binds_every_ddmod_namespace():
    import ddmod
    from ddmod import drufmc, harness, ofdm, otfs

    before = ofdm.apply_channel
    t = tracer.Tracer().install()
    try:
        assert t.absent == []
        assert otfs.apply_channel is drufmc.apply_channel is ofdm.apply_channel is ddmod.apply_channel
        assert ofdm.apply_channel.__wrapped__ is before
        assert harness.sinr_map is ddmod.metrics.sinr_map is not ddmod.metrics.sinr_map.__wrapped__
    finally:
        t.uninstall()
    assert otfs.apply_channel is ofdm.apply_channel is before


def reference_rows(name, seed=0):
    rows = load_reference(WORKLOADS[name], seed)
    assert rows, f"missing reference for {name} seed {seed}"
    return {k: list(v) for k, v in rows.items()}


def test_reference_rows_pass_their_own_check():
    for name, workload in WORKLOADS.items():
        ref = load_reference(workload, 0)
        assert failed_keys(workload, reference_rows(name), ref) == []


def flip_first_decimal(value: str) -> str:
    dot = value.index(".")
    return value[:dot + 1] + str((int(value[dot + 1]) + 1) % 10) + value[dot + 2:]


def test_flipped_digit_counts_as_failure():
    workload = WORKLOADS["full-cell"]
    rows = reference_rows("full-cell")
    key = sorted(rows)[1]
    rows[key][0] = flip_first_decimal(rows[key][0])   # net_sinr_db, e.g. 18.96187222
    assert failed_keys(workload, rows, load_reference(workload, 0)) == [key]


def test_flipped_digit_in_psd_spectrum_counts_as_failure():
    workload = WORKLOADS["psd-guard"]
    rows = reference_rows("psd-guard")
    key = ("otfs",)
    n_guard, spectrum = rows[key]
    assert len(spectrum) > 1000
    freq, power = spectrum[777]               # e.g. ("-53490000", "-43.83969042")
    spectrum = list(spectrum)
    spectrum[777] = (freq, flip_first_decimal(power))
    rows[key] = [n_guard, spectrum]
    assert failed_keys(workload, rows, load_reference(workload, 0)) == [key]


def test_check_without_reference_uses_ranges():
    workload = WORKLOADS["psd-guard"]
    rows = reference_rows("psd-guard")
    assert failed_keys(workload, rows, None) == []
    otfs_spectrum = rows[("otfs",)][1]
    rows[("drufmc",)] = ["44", otfs_spectrum]  # more than 4 from the target of 36
    rows[("ofdm",)] = ["60", otfs_spectrum]    # not an expected family
    assert failed_keys(workload, rows, None) == [("drufmc",), ("ofdm",)]
    rows = reference_rows("psd-guard")
    rows[("otfs",)][1] = otfs_spectrum[:5] + [("0", "nan")]
    rows[("drufmc",)][1] = []                  # no spectrum written for the family
    assert failed_keys(workload, rows, None) == [("otfs",), ("drufmc",)]
    rows = reference_rows("full-cell")
    key = sorted(rows)[0]
    rows[key][2] = "nan"
    assert failed_keys(WORKLOADS["full-cell"], rows, None) == [key]


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
