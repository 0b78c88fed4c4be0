"""One sweep through `ecsumprod sweep`, in a fresh process, timed.

run.py starts this once per repeat so that set-up time and peak memory
belong to a single sweep:

    python3 perfbench/child.py CONFIG CSV RESULT T0_NS [SPANS]

T0_NS is CLOCK_MONOTONIC (system-wide on Linux) read by the parent just
before it started this process.  The sweep window runs from the moment
the CLI's load_config returns to the moment main() returns, after emit
has closed the CSV file.  RESULT receives a JSON object with the
timings; with SPANS, every LAYERS function is traced and the spans are
written there after the sweep.  Exit status 3 means the package could
not be imported from the checkout; any failure leaves no RESULT.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas():
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def main(argv):
    config_path, csv_path, result_path, t0_ns = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ecsumprod
        import ecsumprod.cli as cli
    except ImportError as exc:
        print(f"cannot import ecsumprod from {src}: {exc}", file=sys.stderr)
        return 3
    if not Path(ecsumprod.__file__).resolve().is_relative_to(src):
        print(f"ecsumprod imported from {ecsumprod.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    marks = {}
    load_config = cli.load_config

    def timed_load_config(path):
        config = load_config(path)
        marks["start"] = time.monotonic_ns()
        marks["cpu"] = time.process_time()
        if tracer is not None:
            tracer.master_seed = config.master_seed
        return config

    cli.load_config = timed_load_config
    rc = cli.main(["sweep", "--config", config_path, "--out", csv_path])
    end = time.monotonic_ns()
    if "start" not in marks:
        print(f"`ecsumprod sweep` exited {rc} before loading the config", file=sys.stderr)
        return 1
    cpu = time.process_time() - marks["cpu"]
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "rc": rc,
        "setup_s": (marks["start"] - int(t0_ns)) / 1e9,
        "sweep_s": (end - marks["start"]) / 1e9,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_kib / 1024,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "blas": _blas(),
    }
    if tracer is not None:
        tracer.write(spans_path)
        result["window_ns"] = [marks["start"], end]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
