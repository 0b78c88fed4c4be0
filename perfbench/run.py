"""Sweep benchmark for ecsumprod: one workload per experiment mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs src/ecsumprod).  Each repeat
runs `ecsumprod sweep --config C --out F.csv` in a fresh process
(child.py), so set-up time and peak memory belong to one sweep.  The
workload seed becomes the sweep's master_seed; nothing else varies.

A run first sweeps the workload at its reference seed and compares every
row with perfbench/reference/NAME.csv (which also warms the bytecode and
file caches), then repeats the sweep at --seed until --seconds have
passed, at least MIN_REPEATS times.  Every row of every sweep goes
through the correctness gate (gate.py), and repeats of one seed must
write byte-identical CSV.

--trace 0 reports the end-to-end metrics, medians over repeats:
  sweep_s       wall time from config loaded to CSV file closed
  setup_s       wall time from process start to config parsed
                (interpreter, `import ecsumprod`, numpy)
  peak_rss_mb   peak resident memory of the sweep's own process
  cell_ok_frac  1 - failed cells / attempted cells, over every sweep run
--trace 1 alternates untraced and traced repeats and reports per-layer
metrics from the traced ones (spans.py); the traced sweep minus the
untraced one is the tracing overhead.  It also checks that the work
counters repeat exactly and that self times plus unattributed time add
up to the traced sweep.

`--workload all` runs every workload in turn and carries on past one
whose sweep processes all die.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status 2 means the checkout lacks the package
or a reference, 1 that no sweep finished; neither prints that line.
Per-repeat data and an environment record go to
perfbench/out/NAME-seedN-traceT.json; spans of traced repeats to
*.spans.jsonl beside it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 1
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150

# Sweep configs without master_seed.  Each is sized so that several
# repeats fit in one run and the cost varies little with the seed: the
# seed picks the curves, and a curve's point order T (N/1 .. N/9 here)
# drives most per-cell work, so a workload needs many curves.  There is
# no theorem3 workload: its cost grows as phi(T)^4, so its work moved by
# about 20% (quartile spread) between seeds even over 40 curves, and
# below p ~ 3200 some seeds draw an empty window (EmptyConstruction).
WORKLOADS = {
    # theorem2: count_solutions and its |B|^2|H| int64 buffer dominate.
    # |A| = |B| = 56 keeps the largest buffers above glibc's 32 MiB mmap ceiling,
    # so peak RSS follows the largest buffer, not heap fragmentation.
    "sumprod": {"mode": "theorem2", "p_range": [10000, 10150],
                "sets_per_curve": 2, "set_size_rule": {"fixed": 56}},
    # theorem1: the full-lambda bilinear scan costs (p-1)|K||M| whatever
    # the curve; instance prep is the rest.
    "scan": {"mode": "theorem1", "p_list": [4001, 6007, 8009, 10007],
             "curves_per_p": 2, "set_size_rule": {"fixed": 40}, "nu": 2},
    # identities: the character spectrum plus curve/orbit instance prep;
    # the only workload where the instance layer does a real share.
    "identities": {"mode": "identities", "p_range": [10000, 10150]},
}

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cell_ok_frac": "frac"}


class SetupError(Exception):
    """The benchmark cannot run here (no package, no reference)."""


class NoSweepFinished(Exception):
    """Every sweep process of a workload died; there is nothing to measure."""

    def __init__(self, message, attempted):
        super().__init__(message)
        self.attempted = attempted


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_digest():
    """sha256 over src/**/*.py, naming the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def sweep(workdir, tag, config_path, cells, reference, traced):
    """Run one sweep in a fresh process and gate its CSV."""
    csv_path = workdir / f"{tag}.csv"
    result_path = workdir / f"{tag}.json"
    spans_path = workdir / f"{tag}.spans.jsonl"
    argv = [sys.executable, str(HERE / "child.py"), str(config_path), str(csv_path),
            str(result_path)]
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(argv + [str(t0)] + ([str(spans_path)] if traced else []),
                              cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        code, err = proc.returncode, proc.stderr.decode(errors="replace")
    except subprocess.TimeoutExpired:
        code, err = f"timeout after {CHILD_TIMEOUT_S}s", ""
    if code == 3:
        raise SetupError(err.strip())
    if code != 0 or not result_path.is_file():
        how = f"killed by signal {-code}" if isinstance(code, int) and code < 0 else f"exit {code}"
        tail = err.strip().splitlines()[-1:] if err.strip() else []
        return {"tag": tag, "died": True, "traced": traced, "failed": cells,
                "problems": [f"sweep process {how}; its {cells} cells count as failed"] + tail}
    rep = json.loads(result_path.read_text())
    text = csv_path.read_text(encoding="utf-8") if csv_path.is_file() else ""
    check = gate.check_sweep(text, cells, reference)
    if rep["rc"] != 0:
        check["problems"].append(f"`ecsumprod sweep` exited {rep['rc']}")
    rep.update(tag=tag, died=False, traced=traced, failed=check["failed"],
               problems=check["problems"], csv_sha256=_sha256(text))
    if traced and "window_ns" in rep:
        summary = spans.summarize(spans.read_spans(spans_path), *rep["window_ns"])
        rep["layers"] = spans.layer_metrics(summary)
        rep["problems"] += spans.check_identity(summary)
    return rep


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name, seed, seconds, trace):
    """All sweeps of one run; returns the result dict (see module doc)."""
    ref_text = (REFERENCE / f"{name}.csv").read_text(encoding="utf-8")
    reference = gate.parse_csv(ref_text)
    cells = len(reference[1])
    problems = gate.self_test(name, ref_text)

    workdir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config_paths = {}
    for s in {DEFAULT_SEED, seed}:
        config_paths[s] = workdir / f"config-seed{s}.json"
        config_paths[s].write_text(json.dumps(dict(WORKLOADS[name], master_seed=s)))

    warm = sweep(workdir, "reference", config_paths[DEFAULT_SEED], cells, reference, False)
    repeats = []
    deadline = time.monotonic() + seconds
    minimum = 2 * MIN_REPEATS if trace else MIN_REPEATS
    while len(repeats) < minimum or time.monotonic() < deadline:
        traced = bool(trace) and len(repeats) % 2 == 1
        repeats.append(sweep(workdir, f"rep{len(repeats)}", config_paths[seed], cells,
                             reference if seed == DEFAULT_SEED else None, traced))

    done = [r for r in repeats if not r["died"]]
    same_seed = ([warm] if seed == DEFAULT_SEED and not warm["died"] else []) + done
    for r in same_seed[1:]:
        if r["csv_sha256"] != same_seed[0]["csv_sha256"]:
            r["failed"] = cells
            r["problems"].append(f"CSV differs from {same_seed[0]['tag']}, the same seed")
    sweeps = [warm] + repeats
    attempted = cells * len(sweeps)
    failed = sum(r["failed"] for r in sweeps)
    for r in sweeps:
        problems += [f"{r['tag']}: {p}" for p in r["problems"]]

    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (trace and not traced):
        raise NoSweepFinished(f"{name}: no sweep finished; " + "; ".join(problems[:5]),
                              attempted)

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    metrics, spread = {}, {}
    if not trace:
        for key in ("sweep_s", "setup_s", "peak_rss_mb"):
            values = [r[key] for r in plain]
            metrics[key] = {"value": statistics.median(values), "unit": END_TO_END_UNITS[key]}
            spread[key] = (len(values),) + quartiles(values)
        metrics["cell_ok_frac"] = {"value": 1 - failed / attempted, "unit": "frac"}
    else:
        for key, (_, unit) in traced[0]["layers"].items():
            metrics[key] = {"value": statistics.median(r["layers"][key][0] for r in traced),
                            "unit": unit}
        for key in spans.EXACT_COUNTERS:
            seen = {r["layers"][key][0] for r in traced}
            if len(seen) > 1:
                problems.append(f"counter {key} differs between traced sweeps: {sorted(seen)}")
        metrics["sweep.cpu_s"] = {"value": med(plain, "cpu_s"), "unit": "s"}
        metrics["sweep.traced_s"] = {"value": med(traced, "sweep_s"), "unit": "s"}
        metrics["sweep.trace_overhead_s"] = {
            "value": med(traced, "sweep_s") - med(plain, "sweep_s"), "unit": "s"}

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": dict(WORKLOADS[name], master_seed=seed),
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "metrics": metrics, "spread": spread,
        "problems": problems, "versions": {k: plain[0][k] for k in ("python", "numpy", "blas")},
        "sweeps": sweeps,
    }


def environment(versions, loadavg):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        **versions,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


def report(result):
    """Human-readable lines for one workload's result."""
    name = result["workload"]
    print(f"== {name}: seed {result['seed']}, trace {result['trace']}, "
          f"{result['attempted']} cells attempted, {result['failed']} failed")
    for key, m in result["metrics"].items():
        line = f"{name}  {key} = {m['value']:.6g} {m['unit']}"
        if key in result["spread"]:
            n, q1, q3 = result["spread"][key]
            line += f"  (median of {n}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    if result["trace"]:
        traced_s = result["metrics"]["sweep.traced_s"]["value"]
        shares = sorted(((m["value"], k) for k, m in result["metrics"].items()
                         if k.endswith(".s")), reverse=True)[:4]
        print(f"{name}  largest self times: " + ", ".join(
            f"{k} {v / traced_s:.0%}" for v, k in shares))
    for p in result["problems"][:20]:
        print(f"{name}  PROBLEM: {p}")


def _terminate(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running sweep.
    sys.exit(128 + signum)


def main(argv=None):
    loadavg = os.getloadavg()
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must be in [0, 2^64)")

    if not (ROOT / "src" / "ecsumprod" / "__init__.py").is_file():
        print(f"error: no ecsumprod package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results, lost = [], []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, args.trace))
        except NoSweepFinished as exc:  # counted as failed; other workloads carry on
            print(f"error: {exc}", file=sys.stderr)
            lost.append(exc.attempted)
        except (SetupError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not results:
        return 1

    env = environment(results[0]["versions"], loadavg)
    for result in results:
        result["environment"] = env
        path = OUT / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        report(result)
    print("environment: " + json.dumps(env))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results) and not lost,
        "attempted": sum(r["attempted"] for r in results) + sum(lost),
        "failed": sum(r["failed"] for r in results) + sum(lost),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
