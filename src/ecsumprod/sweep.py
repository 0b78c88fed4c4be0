"""Deterministic experiment sweeps and their CSV/JSON serialization.

A sweep walks (prime, curve, set-sample) combinations from a JSON config,
runs one mode-specific experiment per combination, and emits flat records.
Reproducibility contract: identical configs produce byte-identical output.
Experiments are seeded independently via derive_seed(master, experiment_id)
and failures are isolated into the record's error column, so one bad cell
never poisons the rest of the sweep.
"""

import csv
import io
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, fields

from .charsum import SCAN_CAP, bilinear_ratio_scan
from .errors import EcsumprodError, check_cap
from .extremal import extremal_report
from .field import IS_PRIME_BOUND, is_prime
from .orbit import build_orbit
from .residue import euler_phi
from .rng import derive_seed
from .sampling import discover_instance, sample_unit_subset
from .sumprod import sum_product_report
from .verify import run_identity_suite

MODES = ("theorem1", "theorem2", "theorem3", "identities")


def _is_int(value) -> bool:
    """An int that is not a bool: JSON true must not pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters; see parse_config for the JSON schema."""

    mode: str
    p_list: tuple[int, ...] | None
    p_range: tuple[int, int] | None
    curves_per_p: int
    sets_per_curve: int
    set_size_rule: tuple[str, int | float]  # ("fixed", k) or ("fraction", f)
    nu: int
    master_seed: int

    def primes(self) -> tuple[int, ...]:
        if self.p_list is not None:
            return self.p_list
        lo, hi = self.p_range
        return tuple(p for p in range(max(lo, 5), hi + 1) if is_prime(p))

    def set_size(self, phi: int) -> int:
        kind, value = self.set_size_rule
        k = value if kind == "fixed" else math.floor(value * phi)
        return max(1, min(k, phi))


_CONFIG_KEYS = frozenset(f.name for f in fields(SweepConfig))


def parse_config(data: dict) -> SweepConfig:
    """Validate a config mapping; unknown keys are rejected.

    Schema (JSON object):
      mode            required, one of theorem1|theorem2|theorem3|identities
      p_list          list of primes >= 5  (exactly one of p_list/p_range)
      p_range         [lo, hi], inclusive; primes >= 5 inside are used
      curves_per_p    int >= 1, default 1
      sets_per_curve  int >= 1, default 1
      set_size_rule   {"fixed": k>=1} or {"fraction": 0<f<=1}, default fraction 0.5
      nu              int >= 1, default 1
      master_seed     int in [0, 2^64), default 0

    The caps on p are the package's, curve.ENUMERATION_CAP and
    charsum.SCAN_CAP; a config cannot set them.
    """
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    mode = data.get("mode")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if ("p_list" in data) == ("p_range" in data):
        raise ValueError("exactly one of p_list / p_range is required")

    p_list = p_range = None
    if "p_list" in data:
        raw = data["p_list"]
        if not isinstance(raw, list) or not all(_is_int(p) for p in raw):
            raise ValueError("p_list must be a list of ints")
        for p in raw:
            if p < 5 or not is_prime(p):
                raise ValueError(f"p_list entries must be primes >= 5, got {p}")
        p_list = tuple(raw)
    else:
        raw = data["p_range"]
        if (not isinstance(raw, list) or len(raw) != 2
                or not all(_is_int(v) for v in raw) or raw[0] > raw[1]):
            raise ValueError("p_range must be [lo, hi] with lo <= hi")
        if raw[1] >= IS_PRIME_BOUND:  # before primes() tests every number below hi
            raise ValueError(f"is_prime is exact only below {IS_PRIME_BOUND}, got {raw[1]}")
        p_range = (raw[0], raw[1])

    def _positive_int(key, default):
        v = data.get(key, default)
        if not _is_int(v) or v < 1:
            raise ValueError(f"{key} must be an int >= 1, got {v!r}")
        return v

    rule_raw = data.get("set_size_rule", {"fraction": 0.5})
    if (not isinstance(rule_raw, dict) or len(rule_raw) != 1
            or next(iter(rule_raw)) not in ("fixed", "fraction")):
        raise ValueError('set_size_rule must be {"fixed": k} or {"fraction": f}')
    kind, value = next(iter(rule_raw.items()))
    if kind == "fixed":
        if not _is_int(value) or value < 1:
            raise ValueError("fixed set size must be an int >= 1")
    else:
        if not (_is_int(value) or isinstance(value, float)) or not 0 < value <= 1:
            raise ValueError("fraction must satisfy 0 < f <= 1")
        value = float(value)  # a fixed size stays an int of any size

    master_seed = data.get("master_seed", 0)
    if not _is_int(master_seed) or not 0 <= master_seed < 1 << 64:
        raise ValueError("master_seed must be an int in [0, 2^64)")

    return SweepConfig(
        mode=mode,
        p_list=p_list,
        p_range=p_range,
        curves_per_p=_positive_int("curves_per_p", 1),
        sets_per_curve=_positive_int("sets_per_curve", 1),
        set_size_rule=(kind, value),
        nu=_positive_int("nu", 1),
        master_seed=master_seed,
    )


def load_config(path) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


@dataclass(frozen=True)
class ExperimentRecord:
    """One flat output row. Field order is the wire format: the CSV header
    matches these names exactly, and JSON objects carry the same keys.
    Fields that a mode does not produce stay None (empty in CSV)."""

    experiment_id: int
    p: int
    a4: int | None = None
    a6: int | None = None
    N: int | None = None
    t: int | None = None
    T: int | None = None
    Px: int | None = None
    Py: int | None = None
    nu: int | None = None
    sizeA: int | None = None
    sizeB: int | None = None
    sizeS: int | None = None
    sizeT: int | None = None
    sizeH: int | None = None
    J: int | None = None
    J_lower: int | None = None
    Delta: float | None = None
    thm_lhs: float | None = None
    thm_rhs: float | None = None
    ratio: float | None = None
    seed: int | None = None
    H: int | None = None
    predicted_sizeA: float | None = None
    sizeA_over_predicted: float | None = None
    error: str = ""


RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))


def instance_columns(curve, summary, point, order) -> dict:
    """The columns that name an instance: the curve, its group, P and T."""
    return {
        "p": curve.p, "a4": curve.a4, "a6": curve.a6,
        "N": summary.n_points, "t": summary.trace,
        "T": order, "Px": point[0], "Py": point[1],
    }


def sumprod_columns(rep) -> dict:
    """Columns of a SumProductReport shared by theorem2 and `sumprod`."""
    return {
        "sizeA": rep.size_a, "sizeB": rep.size_b, "sizeS": rep.size_s,
        "sizeT": rep.size_t, "sizeH": rep.size_h,
        "J": rep.solutions, "J_lower": rep.solutions_lower, "Delta": rep.delta,
        "thm_lhs": float(rep.lhs), "thm_rhs": rep.rhs, "ratio": rep.ratio,
    }


def extremal_columns(rep) -> dict:
    """Columns of an ExtremalReport shared by theorem3 and `extremal`."""
    return {
        "H": rep.h_window, "sizeA": rep.size_a,
        "sizeS": rep.size_s, "sizeT": rep.size_t,
        "ratio": rep.ratio, "predicted_sizeA": rep.predicted_size_a,
        "sizeA_over_predicted": (rep.size_a / rep.predicted_size_a
                                 if rep.predicted_size_a > 0 else None),
    }


def _run_experiment(config: SweepConfig, base: dict, summary, table) -> ExperimentRecord:
    seed = base["seed"]

    if config.mode == "theorem3":
        rep = extremal_report(table)
        return ExperimentRecord(
            **base, **extremal_columns(rep),
            sizeB=rep.size_a, thm_lhs=rep.lhs, thm_rhs=rep.rhs,
            # An empty window is a result, not a failure: no class backs it.
            error="" if rep.size_a else "EmptyConstruction",
        )

    if config.mode == "identities":
        checks = run_identity_suite(table, summary.n_points, seed)
        failed = [c.name for c in checks if not c.ok]
        return ExperimentRecord(
            **base,
            error="IdentityViolation:" + ",".join(failed) if failed else "",
        )

    # theorem1 and theorem2 draw two unit subsets of Z_T; a theorem1 cell
    # above the scan cap fails before it draws them
    if config.mode == "theorem1":
        check_cap("full character scan", table.p, SCAN_CAP)
    k = config.set_size(euler_phi(table.order))
    a_set = sample_unit_subset(table.order, k, derive_seed(seed, 1))
    b_set = sample_unit_subset(table.order, k, derive_seed(seed, 2))
    if config.mode == "theorem2":
        rep = sum_product_report(table, a_set, b_set)
        return ExperimentRecord(**base, **sumprod_columns(rep))
    rep = bilinear_ratio_scan(table, a_set, b_set, config.nu)
    return ExperimentRecord(
        **base,
        sizeA=rep.size_k, sizeB=rep.size_m,
        thm_lhs=rep.value, thm_rhs=rep.rhs, ratio=rep.ratio,
    )


def _error_column(exc: Exception) -> str:
    if not isinstance(exc, EcsumprodError):
        traceback.print_exception(exc, file=sys.stderr)
    return type(exc).__name__


def run_sweep(config: SweepConfig) -> list[ExperimentRecord]:
    """Run every (p, curve, set-sample) cell; never aborts on a cell error.

    Records come back sorted by experiment_id (ids are assigned in p-list
    x curve x set order). A curve whose instance prep raises, or a cell
    that raises, contributes records whose error column names the
    exception class, whatever the class (MemoryError included); only
    KeyboardInterrupt and SystemExit, which are not Exceptions, stop the
    sweep. An exception from outside the package is unexpected, so its
    traceback also goes to stderr. A p above curve.ENUMERATION_CAP fails
    its curves in curve_summary, before any p-length allocation, and one
    above charsum.SCAN_CAP fails each theorem1 cell before its sets are
    drawn, both with CapExceeded.
    """
    records = []
    exp_id = 0
    for p in config.primes():
        for c_idx in range(config.curves_per_p):
            prep_error = ""
            try:
                seed = derive_seed(config.master_seed, p, c_idx)
                curve, summary, point, order = discover_instance(p, seed)
                table = build_orbit(curve, point, order)
                columns = instance_columns(curve, summary, point, order)
            except Exception as exc:
                prep_error = _error_column(exc)
                columns = {"p": p}
            for _ in range(config.sets_per_curve):
                base = dict(experiment_id=exp_id, seed=derive_seed(config.master_seed, exp_id),
                            nu=config.nu, **columns)
                if prep_error:
                    rec = ExperimentRecord(**base, error=prep_error)
                else:
                    try:
                        rec = _run_experiment(config, base, summary, table)
                    except Exception as exc:
                        rec = ExperimentRecord(**base, error=_error_column(exc))
                records.append(rec)
                exp_id += 1
    return records


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")  # 17 significant digits round-trip doubles
    return str(value)


def render_csv(records, field_names=RECORD_FIELDS) -> str:
    """CSV text: exact header, \\n line ends, floats at 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(field_names)
    for rec in records:
        row = rec if isinstance(rec, dict) else asdict(rec)
        writer.writerow([_csv_cell(row[name]) for name in field_names])
    return buf.getvalue()


def render_json(records, field_names=RECORD_FIELDS) -> str:
    """JSON array of flat objects; floats serialize via repr and round-trip."""
    rows = []
    for rec in records:
        row = rec if isinstance(rec, dict) else asdict(rec)
        rows.append({name: row[name] for name in field_names})
    return json.dumps(rows, indent=2) + "\n"


def emit(records, fmt: str, out=None, field_names=RECORD_FIELDS):
    """Serialize records ('csv' or 'json') and write them to out, a path,
    or stdout when out is None or '-'."""
    if fmt == "csv":
        text = render_csv(records, field_names)
    elif fmt == "json":
        text = render_json(records, field_names)
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
