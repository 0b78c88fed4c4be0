"""Run-to-run spread of the end-to-end metrics across workload seeds.

    python3 perfbench/spread.py [--workloads sumprod scan] [--seeds 1-10]

Runs run.py once per (workload, seed) with BENCHMARK.json's run_seconds
and --trace 0, then prints, per workload and metric, the median of the
per-run values and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound.  A benchmark is steady when every spread but setup_s's
is well inside its bound.  The table is also written to
perfbench/out/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()

    table = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", name, "--seed", str(seed), "--seconds",
                                    str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        table[name] = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            table[name][metric["name"]] = {
                "median": median, "spread": (q3 - q1) / median, "bound": metric["bound"],
                "values": values, "all_correct": all(r["correct"] for r in runs)}

    print(f"\n{'workload':<12} {'metric':<14} {'median':>10} {'spread':>8} {'bound':>6}")
    for name, metrics in table.items():
        for key, row in metrics.items():
            print(f"{name:<12} {key:<14} {row['median']:>10.4g} {row['spread']:>8.3f} "
                  f"{row['bound']:>6}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
