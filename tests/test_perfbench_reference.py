"""Each benchmark workload, swept at its reference seed, passes the gate.

perfbench/run.py compares every sweep at DEFAULT_SEED with
perfbench/reference/NAME.csv through gate.check_sweep, and a failed cell
there surfaces only in a benchmark run. This runs the same configs
in-process and checks them the same way. The perfbench modules are
loaded read-only; run.py imports gate and spans by their bare names, so
those are registered in sys.modules for the duration of the test.
"""

import importlib.util
import sys
from pathlib import Path

from ecsumprod.sweep import parse_config, render_csv, run_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_matches_its_reference(monkeypatch):
    gate = _load("gate")
    monkeypatch.setitem(sys.modules, "gate", gate)
    monkeypatch.setitem(sys.modules, "spans", _load("spans"))
    run = _load("run")
    failures = {}
    for name, config in sorted(run.WORKLOADS.items()):
        ref_text = (run.REFERENCE / f"{name}.csv").read_text(encoding="utf-8")
        reference = gate.parse_csv(ref_text)
        records = run_sweep(parse_config(dict(config, master_seed=run.DEFAULT_SEED)))
        check = gate.check_sweep(render_csv(records), len(reference[1]), reference)
        if check["failed"] or check["problems"]:
            failures[name] = check
    assert failures == {}
