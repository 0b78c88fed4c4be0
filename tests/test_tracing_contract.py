"""The benchmark's layer tracer wraps package functions by name.

perfbench/spans.py lists them in LAYERS and wraps sweep.derive_seed to
learn which cell is running. A rename in the package would otherwise
surface only in a traced benchmark run, as an AttributeError inside
`install`. The file is loaded read-only; nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
