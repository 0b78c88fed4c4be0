"""Record perfbench/reference/NAME.csv for every workload.

    python3 perfbench/make_reference.py

Each file is the CSV that `ecsumprod sweep` writes for the workload's
config at DEFAULT_SEED.  The gate compares later code against these
files, so record them only from the code whose output is the reference
(the commit that introduced the benchmark) and never to make a failing
comparison pass.
"""

import json
import shutil
import sys

import run


def main():
    run.REFERENCE.mkdir(exist_ok=True)
    workdir = run.OUT / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, config in run.WORKLOADS.items():
        config_path = workdir / f"{name}.json"
        config_path.write_text(json.dumps(dict(config, master_seed=run.DEFAULT_SEED)))
        rep = run.sweep(workdir, name, config_path, 0, None, False)
        if rep["died"] or rep["problems"]:
            print(f"{name}: {rep['problems']}", file=sys.stderr)
            return 1
        shutil.copyfile(workdir / f"{name}.csv", run.REFERENCE / f"{name}.csv")
        print(f"{name}: {rep['sweep_s']:.3f} s, wrote {run.REFERENCE / f'{name}.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
