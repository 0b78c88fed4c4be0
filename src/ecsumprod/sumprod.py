"""Sum sets, product sets and the solution count that links them.

Given unit subsets A, B of Z_T for an orbit table of order T:

    sum set   S = { x(aP) + x(bP) mod p : a in A, b in B }
    index set H = { a*b mod T : a in A, b in B }
    prod set  T = { x(hP) : h in H }

and the quadruple count

    J = #{ (b1, b2, h, u) in B x B x H x S : x(h*b1^-1 P) + x(b2 P) = u }.

Every (a, b1, b2) in A x B x B injects into those quadruples via
(b1, b2, a*b1, x(aP) + x(b2 P)), so J >= #A * (#B)^2 holds exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotAUnit
from .orbit import OrbitTable
from .residue import inv_mod, units_of

# Elements per transient block in the set and count kernels (2 MB as int64).
# Index products fit int64: T <= p + 1 + 2 sqrt(p) and p < 2^31.
BLOCK = 1 << 18


def check_unit_subset(members, t: int) -> tuple[int, ...]:
    """Normalize an iterable of residues to a sorted unit subset of Z_t."""
    out = sorted(set(int(m) for m in members))
    for m in out:
        if not 1 <= m < t:
            raise ValueError(f"set member {m} outside [1, {t - 1}]")
        if math.gcd(m, t) != 1:
            raise NotAUnit(f"set member {m} is not a unit mod {t}")
    return tuple(out)


def _row_blocks(n_rows: int, row_len: int):
    """Slices of at most BLOCK // row_len rows (at least one), covering n_rows."""
    step = max(1, BLOCK // max(1, row_len))
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _distinct(n: int, xs: np.ndarray, ys: np.ndarray, op) -> tuple[int, ...]:
    """Sorted distinct op(x, y) mod n over xs x ys, by a hit-mask filled in blocks."""
    hit = np.zeros(n, dtype=bool)
    for rows in _row_blocks(len(xs), len(ys)):
        hit[op(xs[rows, None], ys[None, :]) % n] = True
    return tuple(np.flatnonzero(hit).tolist())


def _x_values(table: OrbitTable, units) -> np.ndarray:
    """Sorted distinct x(mP) over already checked units m, by a hit-mask on F_p."""
    hit = np.zeros(table.p, dtype=bool)
    hit[[table.xs[m - 1] for m in units]] = True
    return np.flatnonzero(hit)


def sum_set(table: OrbitTable, a_set, b_set) -> tuple[int, ...]:
    """All values x(aP) + x(bP) in F_p, deduplicated and sorted."""
    xa = _x_values(table, check_unit_subset(a_set, table.order))
    xb = _x_values(table, check_unit_subset(b_set, table.order))
    return _distinct(table.p, xa, xb, np.add)


def product_index_set(a_set, b_set, t: int) -> tuple[int, ...]:
    """All products a*b mod t; a subset of the units since A and B are."""
    a = np.array(check_unit_subset(a_set, t), dtype=np.int64)
    b = np.array(check_unit_subset(b_set, t), dtype=np.int64)
    return _distinct(t, a, b, np.multiply)


def prod_set(table: OrbitTable, a_set, b_set) -> tuple[int, ...]:
    """All values x(abP), deduplicated and sorted."""
    return tuple(_x_values(table, product_index_set(a_set, b_set, table.order)).tolist())


def count_solutions(table: OrbitTable, b_set, h_set, sum_values) -> int:
    """Exact quadruple count J over B x B x H x S, in integers only.

    With c1 the histogram on F_p of x(h*b1^-1 P) over B x H and c2 that of
    x(b2 P) over B,

        J = sum over v in supp(c2) of c2[v] * sum over u in S of c1[(u - v) mod p].

    c1 is tallied and the double sum evaluated in row blocks, so the work
    is O(#B * #H + #B * #S) and the memory O(p + BLOCK). The character
    route in charsum shares none of this; a pure-Python triple loop in the
    tests pins it on small instances.
    """
    t, p = table.order, table.p
    b_set = check_unit_subset(b_set, t)
    h_set = check_unit_subset(h_set, t)
    sums = sorted(set(int(u) for u in sum_values))
    if not b_set or not h_set or not sums:
        return 0
    if any(not 0 <= u < p for u in sums):
        raise ValueError("sum values must be canonical residues mod p")
    xs = table.xs_array
    hs = np.array(h_set, dtype=np.int64)
    inv_b = np.array([inv_mod(b, t) for b in b_set], dtype=np.int64)
    c1 = np.zeros(p, dtype=np.int64)
    for rows in _row_blocks(len(inv_b), len(hs)):
        c1 += np.bincount(xs[inv_b[rows, None] * hs[None, :] % t - 1].ravel(), minlength=p)
    c2 = np.bincount(xs[np.array(b_set, dtype=np.int64) - 1], minlength=p)
    vs = np.flatnonzero(c2)
    us = np.array(sums, dtype=np.int64)
    total = 0
    for rows in _row_blocks(len(vs), len(us)):
        v = vs[rows]
        total += int(c1[(us[None, :] - v[:, None]) % p].sum(axis=1) @ c2[v])
    return total


@dataclass(frozen=True)
class SumProductReport:
    """One sum-product experiment on a single (curve, point, A, B) instance.

    lhs = #S * #T is compared against rhs = min(q * #A, bilinear-side
    estimate); `ratio` is lhs/rhs and no inequality between them is ever
    asserted, only reported. `exponent` is log(lhs)/log(#A), the empirical
    analogue of the exponent 2 + delta one would like lhs to beat.
    """

    size_a: int
    size_b: int
    size_s: int
    size_t: int
    size_h: int
    solutions: int  # J
    solutions_lower: int  # #A * (#B)^2, exact lower bound for J
    delta: float  # bilinear-sum estimate entering the rhs
    lhs: int
    rhs: float
    ratio: float | None
    min_branch: str  # which rhs branch was smaller: "q_side" | "bilinear_side"
    exponent: float | None


def sum_product_report(table: OrbitTable, a_set, b_set) -> SumProductReport:
    """Build S, H, T and J for one instance and package the comparison."""
    t, q = table.order, table.p
    a_set = check_unit_subset(a_set, t)
    b_set = check_unit_subset(b_set, t)
    s_vals = sum_set(table, a_set, b_set)
    h_set = product_index_set(a_set, b_set, t)
    t_vals = prod_set(table, a_set, b_set)
    j = count_solutions(table, b_set, h_set, s_vals)
    j_lower = len(a_set) * len(b_set) ** 2
    if j < j_lower:
        raise InvariantViolation(f"quadruple count {j} fell below the exact bound {j_lower}")
    if len(t_vals) < -(-len(h_set) // 2):
        raise InvariantViolation("prod set smaller than half the index set")

    log_q = math.log(q)
    delta = math.sqrt(len(h_set)) * len(b_set) ** (2 / 3) * t ** (2 / 3) * q ** (1 / 12) * log_q ** (1 / 3)
    rhs_q = float(q * len(a_set))
    rhs_bilinear = (
        len(a_set) ** 2 * len(b_set) ** (5 / 3) * q ** (-1 / 6) * t ** (-4 / 3) * log_q ** (-2 / 3)
    )
    rhs = min(rhs_q, rhs_bilinear)
    lhs = len(s_vals) * len(t_vals)
    ratio = lhs / rhs if rhs > 0 else None
    exponent = None
    if len(a_set) >= 2 and lhs >= 1:
        exponent = math.log(lhs) / math.log(len(a_set))
    return SumProductReport(
        size_a=len(a_set),
        size_b=len(b_set),
        size_s=len(s_vals),
        size_t=len(t_vals),
        size_h=len(h_set),
        solutions=j,
        solutions_lower=j_lower,
        delta=delta,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        min_branch="q_side" if rhs_q <= rhs_bilinear else "bilinear_side",
        exponent=exponent,
    )


def full_unit_instance(table: OrbitTable) -> tuple[int, ...]:
    """The whole unit group of Z_order, the default A = B at desk scale."""
    return units_of(table.order)
