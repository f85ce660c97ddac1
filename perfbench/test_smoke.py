"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import CLOCKS, PRINTED_ONLY, TIMED  # noqa: E402

PRINTED = {0: {m["name"] for m in SPEC["end_to_end"]} | set(PRINTED_ONLY),
           1: {m["name"] for m in SPEC["per_layer"]}}


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.5",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in METRICS[trace]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"metric {name} = ") and
                   line.split(" = ", 1)[1].split()[1] == unit
                   for line in lines), name
    assert set(result["metrics"]) == {m["name"] for m in METRICS[trace]}
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == PRINTED[trace]
    if trace == 0:
        for name in ("setup_s", "rounds_per_s", "rep_s_p50", "rep_s_tail",
                     "final_rmse", "final_regret", "paid", "peak_rss_mb",
                     "ok_ratio"):
            assert result["metrics"][name]["value"] > 0, name
        clocks = json.loads(next(line for line in lines
                                 if line.startswith("clocks "))[7:])
        assert set(clocks) == set(CLOCKS[:-1])
        for timed in clocks.values():
            assert set(timed) == set(TIMED)
            assert all(value > 0 for value in timed.values())
    assert any(line.startswith("env {") for line in lines)


def test_layer_map_names_only_existing_metrics_and_workloads():
    end_to_end = PRINTED[0]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for entry in LAYER_MAP["moves"]:
        assert entry["layer_metric"] in per_layer, entry
        assert set(entry["end_to_end"]) <= end_to_end, entry
        for key in ("moves_on", "less_on", "no_change_on"):
            assert set(entry[key]) <= set(WORKLOADS), entry
    for workload, floors in LAYER_MAP["share_floors"].items():
        assert workload in WORKLOADS
        assert set(floors) <= per_layer
    for layer, names in LAYER_MAP["layers"].items():
        for name in names:
            assert name in per_layer or f"{name}.calls" in per_layer, name
    for name, workloads in LAYER_MAP["guards"].items():
        assert name in end_to_end and set(workloads) <= set(WORKLOADS), name
    for workload, names in LAYER_MAP["config_constants"].items():
        assert workload in WORKLOADS and set(names) <= end_to_end, workload
        for name in names:
            assert workload not in LAYER_MAP["guards"].get(name, []), name
    assert set(LAYER_MAP["definitions"]) <= end_to_end | per_layer | {"timings"}


def test_wrappers_restored_and_missing_targets_absent(monkeypatch):
    import crowdreg.harness
    import crowdreg.model
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("model.gone", "crowdreg.model", "no_such_function"),
        ("model.gone_method", "crowdreg.model", "CrowdDataset.no_such"),
        ("gone.module", "crowdreg.no_such_module", "f"),
    ))
    t = tracer.Tracer()
    t.install()
    try:
        assert crowdreg.harness.fit_variational is not crowdreg.model.fit_variational
    finally:
        t.uninstall()
    assert t.absent == ["model.gone", "model.gone_method", "gone.module"]
    assert crowdreg.harness.fit_variational is crowdreg.model.fit_variational
    assert "__wrapped__" not in vars(crowdreg.model.CrowdDataset.with_label)
    assert crowdreg.harness.CrowdDataset is crowdreg.model.CrowdDataset


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    lines = out.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
