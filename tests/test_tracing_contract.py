"""The benchmark's layer tracer wraps package functions by name.

perfbench/spans.py lists them in LAYERS and wraps sweep.derive_seed to
learn which cell is running. A rename in the package would otherwise
surface only in a traced benchmark run: as an AttributeError inside
`install`, or, for a parameter that a LAYERS work counter reads, as a
KeyError that the sweep files in a row's error column. The module is
loaded read-only here, and the traced sweeps run perfbench/child.py in a
subprocess, as the benchmark does.
"""

import csv
import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = []
    for module_name, func_name, _ in _load_spans().LAYERS:
        module = importlib.import_module(f"ecsumprod.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"{module_name}.{func_name}")
    assert missing == []


def test_sweep_binds_derive_seed():
    from ecsumprod import rng, sweep

    assert sweep.derive_seed is rng.derive_seed


# The LAYERS with a work counter that each mode's sweep calls.
COUNTED_BY_MODE = {
    "theorem1": {"orbit.build_orbit", "charsum.bilinear_ratio_scan", "sweep.render_csv"},
    "theorem2": {"orbit.build_orbit", "sumprod.count_solutions", "sumprod.sum_set",
                 "sumprod.product_index_set", "sweep.render_csv"},
    "identities": {"orbit.build_orbit", "sumprod.count_solutions", "sumprod.sum_set",
                   "sumprod.product_index_set", "sweep.render_csv"},
}


@pytest.mark.parametrize("mode", sorted(COUNTED_BY_MODE))
def test_traced_sweep_counts_work_on_every_counter_layer(tmp_path, mode):
    counted = {f"{m}.{f}" for m, f, work in _load_spans().LAYERS if work is not None}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"mode": mode, "p_list": [101, 211], "master_seed": 3}))
    out, result, spans = tmp_path / "out.csv", tmp_path / "result.json", tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(cfg), str(out), str(result),
         str(time.monotonic_ns()), str(spans)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["rc"] == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all(row["error"] == "" for row in rows)
    traced = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {s["name"] for s in traced} & counted == COUNTED_BY_MODE[mode]
    assert [s["name"] for s in traced if s["name"] in counted and s["work"] is None] == []
