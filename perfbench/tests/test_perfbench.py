"""Tests of the benchmark's own code (layer mapping, metric names,
result-identity guard, reference matching, traced-run determinism).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import shutil
import subprocess
import sys

import pytest

import run
from common import ROOT
from layers import LAYERS, group_stats, layer_of_module, package_modules

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_every_package_module_maps_to_exactly_one_named_layer():
    modules = package_modules()
    assert len(modules) > 50
    homes = {module: layer_of_module(module) for module in modules}
    assert all(layer in LAYERS for layer in homes.values())
    assert "unmapped" not in homes.values()
    assert "numpy" not in homes.values()
    # Every layer other than numpy/unmapped owns at least one module.
    assert set(LAYERS) - {"numpy", "unmapped"} == set(homes.values())


def test_profile_time_outside_the_layers_is_reported_not_dropped():
    from repro.core.stats_util import percentile

    profile = cProfile.Profile()
    profile.enable()
    for _ in range(50):
        json.dumps({"x": list(range(50))})  # stdlib: unmapped
        percentile(list(range(100)), 99.0)  # core.stats (+ its builtins)
    profile.disable()
    stats = pstats.Stats(profile)
    table = group_stats(stats)
    assert set(table) == set(LAYERS)
    assert table["unmapped"]["self_s"] > 0
    assert table["core.stats"]["calls"] >= 50
    assert table["core"]["calls"] == 0
    total = sum(entry[2] for entry in stats.stats.values())
    grouped = sum(row["self_s"] for row in table.values())
    assert grouped == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [name for name, _ in end_to_end] + [m[0] for m in per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for layer in LAYERS:
        assert f"{layer}.self_s" in names and f"{layer}.calls" in names


@pytest.mark.parametrize("knob", run.RESULT_KNOBS)
def test_result_changing_knobs_refuse_to_run(monkeypatch, capsys, knob):
    monkeypatch.setenv(knob, "1")
    assert run.main(["--workload", "packet_fct", "--seconds", "1"]) == 2
    captured = capsys.readouterr()
    assert knob in captured.err
    assert captured.out == ""


def test_without_the_package_source_the_command_fails_without_a_result(
    tmp_path,
):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "packet_fct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_baseline_series_matching():
    from simwork import series_mismatch

    expected = {
        "series": {"overall_avg": [1.0, 2.0], "large_avg": [5.0]},
        "seed_index": 0,
        "seeds": 2,
    }
    assert series_mismatch({"overall_avg": 1.0}, expected) is None
    assert series_mismatch({"overall_avg": 1.0, "large_avg": 5.0},
                            expected) is None
    assert series_mismatch({"overall_avg": 2.0}, expected) is not None
    assert series_mismatch({"large_avg": 5.0}, expected) is not None
    assert series_mismatch({"overall_avg": 1.0, "large_avg": 4.0},
                            expected) is not None
    assert series_mismatch({"overall_avg": 1.0, "other": 0.0},
                            expected) is not None


def _traced_calls(tmp_path, monkeypatch, name):
    import querywork

    monkeypatch.setattr(querywork, "EPOCHS_PER_ROUND", 2)
    workload = run.make_workload("results_query", 3, tmp_path / name, 0)
    args = run.parse_args(["--workload", "results_query", "--seed", "3",
                           "--trace", "1"])
    tally = run.Tally()
    try:
        workload.setup()
        metrics = run.traced(args, workload, tally)
    finally:
        workload.close()
    assert tally.failed == 0, tally.problems
    return {key: value["value"] for key, value in metrics.items()
            if key.endswith(".calls")}


def test_two_traced_runs_of_one_seed_count_the_same_calls(
    tmp_path, monkeypatch,
):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    first = _traced_calls(tmp_path, monkeypatch, "a")
    second = _traced_calls(tmp_path, monkeypatch, "b")
    # Standard-library internals (socket reads, thread hand-offs) may loop
    # a different number of times; every layer of the program may not.
    first.pop("unmapped.calls")
    second.pop("unmapped.calls")
    assert first == second
    assert first["service.query.calls"] > 0
    assert first["service.index.calls"] > 0


def test_timings_count_each_cell_once_and_pool_query_requests():
    cells = run.timings("packet_fct", [
        {"cell": 0, "cold": 1.0, "warm": [0.001, 0.003]},
        {"cell": 1, "cold": 2.0, "warm": [0.002]},
        {"cell": 0, "cold": 3.0, "warm": [0.002]},
    ], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert cells["values"]["wall_s"] == pytest.approx(4.0)
    assert cells["values"]["cold_p50_ms"] == pytest.approx(2000.0)
    assert cells["values"]["warm_p50_ms"] == pytest.approx(2.0)
    assert cells["values"]["queries_per_s"] == pytest.approx(4 / 0.008)
    assert cells["samples"]["wall_s"] == 1  # the cell timed least often

    queries = run.timings("results_query", [
        {"round": 0, "cold": [0.002], "warm": [0.001], "wall": 0.1},
        {"round": 1, "cold": [0.004, 0.006], "warm": [0.001], "wall": 0.3},
    ], [1.0, 1.0], [1.0, 1.0])
    assert queries["values"]["wall_s"] == pytest.approx(0.2)
    assert queries["values"]["cold_p50_ms"] == pytest.approx(4.0)
    assert queries["values"]["queries_per_s"] == pytest.approx(5 / 0.014)
    assert queries["samples"]["queries_per_s"] == 5


def test_timings_scale_each_step_by_the_host_speed_around_it(tmp_path):
    gauge = run.SpeedGauge(tmp_path / "read-kernel.pkl")
    ref = run.REFERENCE_KERNEL_S
    gauge.samples = [ref, ref / 2, ref / 2, ref * 2, ref * 2, ref * 2,
                     ref * 2, ref * 2, ref * 2, ref * 2]
    # Each step is gauged by the median of the six samples nearest it.
    # Step 0: ref, ref/2, ref/2, 2 ref -> median 0.75 ref.
    assert gauge.scales()[0] == pytest.approx(1 / 0.75)
    # Step 2: ref, ref/2, ref/2, 2 ref, 2 ref, 2 ref -> median 1.5 ref.
    assert gauge.scales()[2] == pytest.approx(1 / 1.5)
    assert gauge.scales()[-1] == pytest.approx(0.5)
    assert len(gauge.scales()) == len(gauge.samples) - 1

    # A warm burst is gauged by the read-kernel pair around it alone.
    read_ref = run.REFERENCE_READ_KERNEL_S
    gauge.read_samples = [read_ref, read_ref * 3, read_ref / 2, read_ref / 2]
    assert gauge.burst_scales() == pytest.approx([0.5, 2.0])
    gauge.read()
    assert gauge.read_samples[-1] > 0
    cold, warm = gauge.step_scales("packet_incast")
    assert cold == gauge.scales()
    assert warm == gauge.burst_scales()
    # A results_query step is one epoch: both take the step's scale.
    cold, warm = gauge.step_scales("results_query")
    assert cold == warm == gauge.scales()

    fast_then_slow = run.timings("packet_incast", [
        {"cell": 0, "cold": 1.0, "warm": [0.001]},
        {"cell": 0, "cold": 4.0, "warm": [0.004]},
    ], [2.0, 0.5], [3.0, 0.25])
    assert fast_then_slow["values"]["wall_s"] == pytest.approx(2.0)
    # 3 ms and 1 ms scaled; the p99 over the host's 1 ms and 4 ms, times
    # the square root of the median step scale, 1.25.
    assert fast_then_slow["values"]["warm_p50_ms"] == pytest.approx(2.0)
    assert fast_then_slow["values"]["warm_p99_ms"] == pytest.approx(
        (1.0 + 0.99 * 3.0) * 1.25 ** 0.5
    )
