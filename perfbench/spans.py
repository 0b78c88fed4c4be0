"""Layer tracing from outside the package.

`install` wraps the public functions listed in LAYERS wherever an
ecsumprod module binds them, so every call that run_sweep and its callees
make through those names opens a span.  A span is (name, start, end,
parent, cell, work): times are CLOCK_MONOTONIC nanoseconds, parent is the
index of the enclosing span (-1 at top level), cell names the sweep cell
that was running, and work is a count computed from the call's arguments
and result, so it repeats exactly for a given config.

`field`, `residue` and `rng` are not wrapped: they are called once per
group-law step, and a wrapper would cost more than the work it times.
Their time is self time of the caller.

`summarize` turns one traced process's spans into per-layer metrics.
"""

import inspect
import json
import sys
import time
import tracemalloc


def _distinct(values):
    return len(set(values))


# (module, function, work counter or None).  A counter gets the call's
# bound arguments by parameter name and the result.
LAYERS = (
    ("curve", "curve_summary", None),
    ("curve", "enumerate_points", None),
    ("curve", "point_order", None),
    ("sampling", "random_curve", None),
    ("sampling", "max_order_point", None),
    ("sampling", "sample_unit_subset", None),
    ("orbit", "build_orbit", lambda a, r: r.order - 1),
    ("sumprod", "count_solutions",
     lambda a, r: _distinct(a["b_set"]) ** 2 * _distinct(a["h_set"])),
    ("sumprod", "sum_set", lambda a, r: _distinct(a["a_set"]) * _distinct(a["b_set"])),
    ("sumprod", "product_index_set",
     lambda a, r: _distinct(a["a_set"]) * _distinct(a["b_set"])),
    ("sumprod", "prod_set", None),
    ("sumprod", "sum_product_report", None),
    ("charsum", "bilinear_ratio_scan",
     lambda a, r: (a["table"].p - 1) * _distinct(a["k_set"]) * _distinct(a["m_set"])),
    ("charsum", "solutions_spectrum", None),
    ("charsum", "subgroup_sum", None),
    ("charsum", "bilinear_sum", None),
    ("extremal", "mobius_identity_residual", None),
    ("verify", "run_identity_suite", None),
    ("sweep", "run_sweep", None),
    ("sweep", "render_csv", lambda a, r: len(r.encode("utf-8"))),
)

# Layers whose peak traced allocation is recorded (tracemalloc sees numpy
# buffers).  Tracing allocations slows them, so only the J kernel is watched.
MEMORY_WATCHED = {"sumprod.count_solutions"}


class Tracer:
    """Spans of one process, kept in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cell = None
        self.master_seed = None

    def wrap(self, name, fn, work):
        signature = inspect.signature(fn)
        watch_memory = name in MEMORY_WATCHED

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            if watch_memory:
                tracemalloc.start()
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                self.stack.pop()
                peak = None
                if watch_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans[index] = [name, start, end, parent, self.cell, None, peak]
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index][5] = work(bound.arguments, result)
            return result

        return traced

    def mark_cell(self, derive_seed):
        """Wrap run_sweep's derive_seed to learn which cell is running.

        run_sweep seeds each instance as derive_seed(master, p, curve) and
        each cell as derive_seed(master, experiment_id); calls seeded from
        anything but the master seed are inside a cell and change nothing.
        """

        def marked(*args):
            if args and args[0] == self.master_seed:
                rest = args[1:]
                self.cell = f"p{rest[0]}.c{rest[1]}" if len(rest) == 2 else f"e{rest[0]}"
            return derive_seed(*args)

        return marked

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cell, work, peak in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "cell": cell,
                                     "work": work, "peak_bytes": peak}) + "\n")


def install(tracer):
    """Wrap every LAYERS function in every loaded ecsumprod module."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "ecsumprod" or n.startswith("ecsumprod."))]
    for module_name, func_name, work in LAYERS:
        original = getattr(sys.modules[f"ecsumprod.{module_name}"], func_name)
        traced = tracer.wrap(f"{module_name}.{func_name}", original, work)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
    sweep = sys.modules["ecsumprod.sweep"]
    sweep.derive_seed = tracer.mark_cell(sweep.derive_seed)


def read_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(spans, window_start, window_end):
    """Per-layer metrics of one traced sweep.

    Self time is a span's duration minus its direct children's.  Time in
    the sweep window covered by no top-level span is `sweep.unattributed_s`;
    it is computed from interval coverage, not as a remainder, so the
    identity  sum(self) + unattributed = traced sweep  is a real check that
    spans nest (see `check_identity`).
    """
    n = len(spans)
    child_ns = [0] * n
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end"] - s["start"]
    layers = {}
    for i, s in enumerate(spans):
        layer = layers.setdefault(s["name"], {"calls": 0, "self_ns": 0, "work": 0,
                                              "peak_bytes": 0, "parents": {}})
        layer["calls"] += 1
        layer["self_ns"] += s["end"] - s["start"] - child_ns[i]
        layer["work"] += s["work"] or 0
        layer["peak_bytes"] = max(layer["peak_bytes"], s["peak_bytes"] or 0)
        if s["parent"] >= 0:
            parent = spans[s["parent"]]["name"]
            layer["parents"][parent] = layer["parents"].get(parent, 0) + 1

    covered, cursor = 0, window_start
    for s in sorted((s for s in spans if s["parent"] < 0), key=lambda s: s["start"]):
        lo, hi = max(s["start"], cursor), min(s["end"], window_end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return {
        "layers": layers,
        "self_ns_total": sum(layer["self_ns"] for layer in layers.values()),
        "min_self_ns": min((s["end"] - s["start"] - child_ns[i] for i, s in enumerate(spans)),
                           default=0),
        "unattributed_ns": (window_end - window_start) - covered,
        "window_ns": window_end - window_start,
    }


def check_identity(summary):
    """Problems with the self-time accounting of one traced sweep."""
    problems = []
    if summary["min_self_ns"] < 0:
        problems.append("a span is shorter than its children")
    total = summary["self_ns_total"] + summary["unattributed_ns"]
    if total != summary["window_ns"]:
        problems.append(f"self times + unattributed = {total} ns, traced sweep = "
                        f"{summary['window_ns']} ns")
    return problems


def _get(layers, name, key):
    return layers.get(name, {}).get(key, 0)


def layer_metrics(summary):
    """Named per-layer metrics (value, unit) of one traced sweep."""
    layers = summary["layers"]

    def s(name):
        return _get(layers, name, "self_ns") / 1e9

    def calls(name):
        return _get(layers, name, "calls")

    def work(name):
        return _get(layers, name, "work")

    def per(ns_name, count):
        return _get(layers, ns_name, "self_ns") / count if count else 0.0

    summaries_in_draws = layers.get("curve.curve_summary", {}).get("parents", {}).get(
        "sampling.random_curve", 0)
    j_terms = work("sumprod.count_solutions")
    scan_terms = work("charsum.bilinear_ratio_scan")
    steps = work("orbit.build_orbit")
    return {
        "curve.curve_summary.s": (s("curve.curve_summary"), "s"),
        "curve.enumerate_points.s": (s("curve.enumerate_points"), "s"),
        "curve.point_order.calls": (calls("curve.point_order"), "count"),
        "curve.point_order.s": (s("curve.point_order"), "s"),
        "sampling.random_curve.calls": (calls("sampling.random_curve"), "count"),
        "sampling.random_curve.s": (s("sampling.random_curve"), "s"),
        "sampling.random_curve.accept_ratio": (
            calls("sampling.random_curve") / summaries_in_draws if summaries_in_draws else 0.0,
            "ratio"),
        "sampling.max_order_point.s": (s("sampling.max_order_point"), "s"),
        "sampling.sample_unit_subset.s": (s("sampling.sample_unit_subset"), "s"),
        "orbit.build_orbit.calls": (calls("orbit.build_orbit"), "count"),
        "orbit.build_orbit.s": (s("orbit.build_orbit"), "s"),
        "orbit.build_orbit.steps": (steps, "count"),
        "orbit.build_orbit.ns_per_step": (per("orbit.build_orbit", steps), "ns/step"),
        "sumprod.count_solutions.calls": (calls("sumprod.count_solutions"), "count"),
        "sumprod.count_solutions.s": (s("sumprod.count_solutions"), "s"),
        "sumprod.count_solutions.terms": (j_terms, "count"),
        "sumprod.count_solutions.computed_mb": (8 * j_terms / 1e6, "MB"),
        "sumprod.count_solutions.peak_mb": (
            _get(layers, "sumprod.count_solutions", "peak_bytes") / 1e6, "MB"),
        "sumprod.sum_set.s": (s("sumprod.sum_set"), "s"),
        "sumprod.sum_set.pairs": (work("sumprod.sum_set"), "count"),
        "sumprod.product_index_set.s": (s("sumprod.product_index_set"), "s"),
        "sumprod.product_index_set.pairs": (work("sumprod.product_index_set"), "count"),
        "sumprod.prod_set.s": (s("sumprod.prod_set"), "s"),
        "sumprod.sum_product_report.s": (s("sumprod.sum_product_report"), "s"),
        "charsum.bilinear_ratio_scan.calls": (calls("charsum.bilinear_ratio_scan"), "count"),
        "charsum.bilinear_ratio_scan.s": (s("charsum.bilinear_ratio_scan"), "s"),
        "charsum.bilinear_ratio_scan.terms": (scan_terms, "count"),
        "charsum.bilinear_ratio_scan.ns_per_term": (
            per("charsum.bilinear_ratio_scan", scan_terms), "ns/term"),
        "charsum.solutions_spectrum.s": (s("charsum.solutions_spectrum"), "s"),
        "charsum.subgroup_sum.calls": (calls("charsum.subgroup_sum"), "count"),
        "charsum.subgroup_sum.s": (s("charsum.subgroup_sum"), "s"),
        "charsum.bilinear_sum.s": (s("charsum.bilinear_sum"), "s"),
        "extremal.mobius_identity_residual.calls": (
            calls("extremal.mobius_identity_residual"), "count"),
        "extremal.mobius_identity_residual.s": (s("extremal.mobius_identity_residual"), "s"),
        "verify.run_identity_suite.calls": (calls("verify.run_identity_suite"), "count"),
        "verify.run_identity_suite.s": (s("verify.run_identity_suite"), "s"),
        "sweep.run_sweep.s": (s("sweep.run_sweep"), "s"),
        "sweep.render_csv.s": (s("sweep.render_csv"), "s"),
        "sweep.csv_bytes": (work("sweep.render_csv"), "B"),
        "sweep.unattributed_s": (summary["unattributed_ns"] / 1e9, "s"),
    }


# Counters that must repeat exactly between traced sweeps of one config.
EXACT_COUNTERS = (
    "curve.point_order.calls",
    "sampling.random_curve.calls",
    "sampling.random_curve.accept_ratio",
    "orbit.build_orbit.calls",
    "orbit.build_orbit.steps",
    "sumprod.count_solutions.calls",
    "sumprod.count_solutions.terms",
    "sumprod.count_solutions.computed_mb",
    "sumprod.sum_set.pairs",
    "sumprod.product_index_set.pairs",
    "charsum.bilinear_ratio_scan.calls",
    "charsum.bilinear_ratio_scan.terms",
    "charsum.subgroup_sum.calls",
    "extremal.mobius_identity_residual.calls",
    "verify.run_identity_suite.calls",
    "sweep.csv_bytes",
)
