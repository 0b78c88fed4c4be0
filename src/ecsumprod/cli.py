"""Command line front door.

Subcommands: curve find, verify, sumprod, charsum, extremal, sweep.
Every run is seeded and reproducible; outputs go to stdout or --out as
CSV or JSON. Exit codes: 0 all asserted invariants passed, 1 invariant
violation (a failed verify check or any InvariantViolation), 2 usage or
config error.
"""

import argparse
import re
import sys

from .charsum import bilinear_ratio_scan, subgroup_scan
from .curve import CurveParams, curve_summary, point_order
from .errors import EcsumprodError, InvariantViolation
from .extremal import extremal_report
from .orbit import build_orbit
from .residue import units_of
from .rng import SplitMix64
from .sampling import max_order_point, random_curve
from .sumprod import sum_product_report
from .sweep import (
    emit,
    extremal_columns,
    instance_columns,
    load_config,
    run_sweep,
    sumprod_columns,
)
from .verify import run_identity_suite

CURVE_FIELDS = ("p", "a4", "a6", "N", "t", "ordinary", "Px", "Py", "T")
SET_HELP = "members split by commas or whitespace, or @file with the same"


def parse_member_set(text):
    """--setA/--setB values: members split by commas or any whitespace, or @file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    members = []
    for tok in filter(None, re.split(r"[,\s]+", text)):
        try:
            members.append(int(tok))
        except ValueError:
            raise ValueError(f"member {tok!r} is not an integer") from None
    return members


def _member_set_or_units(text, flag, order):
    """A --setA/--setB set, or every unit of Z_T when the flag is absent."""
    if text is None:
        return units_of(order)
    try:
        members = parse_member_set(text)
    except ValueError as exc:
        raise ValueError(f"{flag} {exc}") from None
    if not members:
        raise ValueError(f"{flag} gives an empty set; leave it out to use all units")
    return members


def _seed(text):
    """--seed: an int in [0, 2^64), the range SplitMix64 keys on."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an int in [0, 2^64), got {text!r}")
    return seed


def _add_instance_args(sub):
    sub.add_argument("--p", type=int, required=True, help="field prime, >= 5")
    sub.add_argument("--a4", type=int, default=None, help="curve coefficient a4")
    sub.add_argument("--a6", type=int, default=None, help="curve coefficient a6")
    sub.add_argument("--px", type=int, default=None, help="base point x")
    sub.add_argument("--py", type=int, default=None, help="base point y")
    sub.add_argument("--seed", type=_seed, default=0,
                     help="seed for anything left unspecified (default 0)")


def _add_output_args(sub):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def resolve_instance(args):
    """(curve, summary, point, order, table) from flags, sampling what's missing.

    Sampled curves are required ordinary; explicitly given coefficients are
    taken as-is. The base point defaults to a maximal-order sample.
    """
    rng = SplitMix64(args.seed)
    if (args.a4 is None) != (args.a6 is None):
        raise ValueError("give both --a4 and --a6, or neither")
    if args.a4 is not None:
        curve = CurveParams(args.p, args.a4, args.a6)
        summary = curve_summary(curve)
    else:
        curve, summary = random_curve(args.p, rng)
    if (args.px is None) != (args.py is None):
        raise ValueError("give both --px and --py, or neither")
    if args.px is not None:
        point = (args.px % curve.p, args.py % curve.p)
        order = point_order(curve, point, summary.n_points)
    else:
        point, order = max_order_point(curve, summary.n_points, rng)
    return curve, summary, point, order, build_orbit(curve, point, order)


def cmd_curve_find(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    rng = SplitMix64(args.seed)
    rows = []
    for _ in range(args.count):
        curve, summary = random_curve(
            args.p, rng, require_ordinary=not args.allow_supersingular)
        point, order = max_order_point(curve, summary.n_points, rng)
        rows.append({**instance_columns(curve, summary, point, order),
                     "ordinary": summary.ordinary})
    emit(rows, args.format, args.out, CURVE_FIELDS)
    return 0


def cmd_verify(args) -> int:
    curve, summary, point, order, table = resolve_instance(args)
    checks = run_identity_suite(table, summary.n_points, args.seed)
    if args.format == "json":
        emit(checks, "json", None, ("name", "ok", "detail"))
    else:
        sys.stdout.write(
            f"instance p={curve.p} a4={curve.a4} a6={curve.a6} "
            f"P=({point[0]},{point[1]}) T={order} N={summary.n_points} "
            f"t={summary.trace} ordinary={summary.ordinary}\n")
        for c in checks:
            sys.stdout.write(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}\n")
    return 0 if all(c.ok for c in checks) else 1


def cmd_sumprod(args) -> int:
    curve, summary, point, order, table = resolve_instance(args)
    a_set = _member_set_or_units(args.setA, "--setA", order)
    b_set = _member_set_or_units(args.setB, "--setB", order)
    rep = sum_product_report(table, a_set, b_set)
    row = {
        **instance_columns(curve, summary, point, order), **sumprod_columns(rep),
        "min_branch": rep.min_branch, "exponent": rep.exponent,
    }
    emit([row], args.format, args.out, tuple(row))
    return 0


def cmd_charsum(args) -> int:
    curve, summary, point, order, table = resolve_instance(args)
    k_set = _member_set_or_units(args.setA, "--setA", order)
    m_set = _member_set_or_units(args.setB, "--setB", order)
    rep = bilinear_ratio_scan(table, k_set, m_set, args.nu)
    sub = subgroup_scan(table)
    row = {
        **instance_columns(curve, summary, point, order), "nu": rep.nu,
        "sizeK": rep.size_k, "sizeM": rep.size_m,
        "lam": rep.lam, "value": rep.value, "rhs": rep.rhs, "ratio": rep.ratio,
        "subgroup_max": sub.max_abs, "subgroup_lam": sub.lam,
        "subgroup_over_sqrt_p": sub.max_over_sqrt_p,
    }
    emit([row], args.format, args.out, tuple(row))
    return 0


def cmd_extremal(args) -> int:
    curve, summary, point, order, table = resolve_instance(args)
    rep = extremal_report(table, args.H)
    row = {**instance_columns(curve, summary, point, order), **extremal_columns(rep)}
    emit([row], args.format, args.out, tuple(row))
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    records = run_sweep(config)
    emit(records, args.format, args.out)
    if any(r.error.startswith(("IdentityViolation", "InvariantViolation")) for r in records):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecsumprod",
        description="Exact experiments on sum/product structure of "
                    "elliptic-curve orbit x-coordinates over prime fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="curve discovery")
    curve_sub = curve.add_subparsers(dest="subcommand", required=True)
    find = curve_sub.add_parser("find", help="sample usable curves over F_p")
    find.add_argument("--p", type=int, required=True)
    find.add_argument("--count", type=int, default=1)
    find.add_argument("--seed", type=_seed, default=0)
    find.add_argument("--allow-supersingular", action="store_true",
                      help="keep curves with trace 0 mod p")
    _add_output_args(find)
    find.set_defaults(handler=cmd_curve_find)

    verify = sub.add_parser("verify", help="run the identity checks on one instance")
    _add_instance_args(verify)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=cmd_verify)

    sumprod = sub.add_parser("sumprod", help="sum/product set report for sets A, B")
    _add_instance_args(sumprod)
    sumprod.add_argument("--setA", default=None, help=f"{SET_HELP} (default: all units)")
    sumprod.add_argument("--setB", default=None, help=f"{SET_HELP} (default: all units)")
    _add_output_args(sumprod)
    sumprod.set_defaults(handler=cmd_sumprod)

    charsum = sub.add_parser("charsum", help="bilinear character-sum scan for sets K, M")
    _add_instance_args(charsum)
    charsum.add_argument("--setA", default=None, help=f"set K: {SET_HELP}")
    charsum.add_argument("--setB", default=None, help=f"set M: {SET_HELP}")
    charsum.add_argument("--nu", type=int, default=1)
    _add_output_args(charsum)
    charsum.set_defaults(handler=cmd_charsum)

    extremal = sub.add_parser("extremal", help="low-x window construction report")
    _add_instance_args(extremal)
    extremal.add_argument("--H", type=int, default=None,
                          help="x window bound (default floor(phi(T)/2))")
    _add_output_args(extremal)
    extremal.set_defaults(handler=cmd_extremal)

    sweep = sub.add_parser("sweep", help="run a config-driven experiment sweep")
    sweep.add_argument("--config", required=True, help="JSON config path")
    _add_output_args(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # ValueError covers a config's json.JSONDecodeError
    except (EcsumprodError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, InvariantViolation) else 2


if __name__ == "__main__":
    sys.exit(main())
