"""Sum sets, product sets and the solution count that links them.

Given unit subsets A, B of Z_T for an orbit table of order T:

    sum set   S = { x(aP) + x(bP) mod p : a in A, b in B }
    index set H = { a*b mod T : a in A, b in B }
    prod set  T = { x(hP) : h in H }

and the quadruple count

    J = #{ (b1, b2, h, u) in B x B x H x S : x(h*b1^-1 P) + x(b2 P) = u }.

Every (a, b1, b2) in A x B x B injects into those quadruples via
(b1, b2, a*b1, x(aP) + x(b2 P)), so J >= #A * (#B)^2 holds exactly.

Every kernel works on sorted int64 arrays in blocks of BLOCK elements,
sized so a block's temporaries stay in L2. The public set functions
validate, call a kernel and return a tuple; sum_product_report validates
A and B once and hands S, H and T from kernel to kernel as arrays, so the
validation count_solutions repeats on them costs microseconds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotAUnit
from .orbit import OrbitTable
from .residue import inv_mod, units_of

# Elements per transient block in the set and count kernels: a block's
# int64 temporaries (256 kB each) stay in a 2 MB L2 cache. count_solutions
# at #B = 56, #H = 2682, p = 10007 took 2.3 ms, against 3.8 ms with blocks
# of 2^18 elements (2 MB each).
# Index products fit int64: T <= p + 1 + 2 sqrt(p) and p < 2^31.
BLOCK = 1 << 15


def _sorted_distinct(members) -> np.ndarray:
    """Sorted distinct integers of an iterable, as int64.

    Deduplicates by sorting and masking equal neighbours (np.unique costs
    20x more on a few thousand values). A member beyond int64 makes the
    array one of Python ints instead, which every caller rejects.
    """
    if isinstance(members, np.ndarray) and not np.can_cast(members.dtype, np.int64):
        members = members.tolist()
    elif not isinstance(members, (list, tuple, np.ndarray)):
        members = list(members)
    try:
        arr = np.sort(np.asarray(members, dtype=np.int64), axis=None)
    except OverflowError:
        arr = np.sort(np.array([int(m) for m in members], dtype=object))
    keep = np.ones(len(arr), dtype=bool)
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def _unit_array(members, t: int) -> np.ndarray:
    """Members of a unit subset of Z_t, sorted, distinct and int64.

    The smallest bad member decides the error: ValueError if it lies
    outside [1, t-1], NotAUnit if it shares a factor with t.
    """
    arr = _sorted_distinct(members)
    bad = (arr < 1) | (arr >= t) | (np.gcd(arr, t) != 1)
    if bad.any():
        m = int(arr[np.argmax(bad)])
        if not 1 <= m < t:
            raise ValueError(f"set member {m} outside [1, {t - 1}]")
        raise NotAUnit(f"set member {m} is not a unit mod {t}")
    return arr


def check_unit_subset(members, t: int) -> tuple[int, ...]:
    """Normalize an iterable of residues to a sorted unit subset of Z_t."""
    return tuple(_unit_array(members, t).tolist())


def _row_blocks(n_rows: int, row_len: int):
    """Slices of at most BLOCK // row_len rows (at least one), covering n_rows."""
    step = max(1, BLOCK // max(1, row_len))
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _distinct(n: int, xs: np.ndarray, ys: np.ndarray, op) -> np.ndarray:
    """Sorted distinct op(x, y) mod n over xs x ys, by a hit-mask filled in blocks."""
    hit = np.zeros(n, dtype=bool)
    for rows in _row_blocks(len(xs), len(ys)):
        k = op.outer(xs[rows], ys)
        hit[np.remainder(k, n, out=k)] = True
    return np.flatnonzero(hit)


def _x_values(table: OrbitTable, units: np.ndarray) -> np.ndarray:
    """Sorted distinct x(mP) over already checked units m, by a hit-mask on F_p."""
    hit = np.zeros(table.p, dtype=bool)
    hit[table.xs_array[units - 1]] = True
    return np.flatnonzero(hit)


def sum_set(table: OrbitTable, a_set, b_set) -> tuple[int, ...]:
    """All values x(aP) + x(bP) in F_p, deduplicated and sorted."""
    xa = _x_values(table, _unit_array(a_set, table.order))
    xb = _x_values(table, _unit_array(b_set, table.order))
    return tuple(_distinct(table.p, xa, xb, np.add).tolist())


def product_index_set(a_set, b_set, t: int) -> tuple[int, ...]:
    """All products a*b mod t; a subset of the units since A and B are."""
    a, b = _unit_array(a_set, t), _unit_array(b_set, t)
    return tuple(_distinct(t, a, b, np.multiply).tolist())


def prod_set(table: OrbitTable, a_set, b_set) -> tuple[int, ...]:
    """All values x(abP), deduplicated and sorted."""
    a, b = _unit_array(a_set, table.order), _unit_array(b_set, table.order)
    return tuple(_x_values(table, _distinct(table.order, a, b, np.multiply)).tolist())


def count_solutions(table: OrbitTable, b_set, h_set, sum_values) -> int:
    """Exact quadruple count J over B x B x H x S, in integers only.

    With c1 the histogram on F_p of x(h*b1^-1 P) over B x H and c2 that of
    x(b2 P) over B,

        J = sum over v in supp(c2) of c2[v] * sum over u in S of c1[(u - v) mod p].

    c1 is tallied on Z_T in row blocks and carried to F_p through x once;
    the double sum reads c1 doubled, c1ext[u + p - v] = c1[(u - v) mod p],
    so it needs no reduction. The work is O(#B * #H + #B * #S + T) and the
    memory O(p + BLOCK), as T < 2p. The arguments may be any iterables or
    int64 arrays. The character route in charsum shares none of this; a
    pure-Python triple loop in the tests pins it on small instances.
    """
    t, p = table.order, table.p
    bs = _unit_array(b_set, t)
    hs = _unit_array(h_set, t)
    us = _sorted_distinct(sum_values)
    if not len(bs) or not len(hs) or not len(us):
        return 0
    if us[0] < 0 or us[-1] >= p:
        raise ValueError("sum values must be canonical residues mod p")
    xs = table.xs_array
    inv_b = np.array([inv_mod(b, t) for b in bs.tolist()], dtype=np.int64)
    c1_t = np.zeros(t, dtype=np.int64)  # histogram of h*b1^-1 on Z_T
    for rows in _row_blocks(len(inv_b), len(hs)):
        k = np.multiply.outer(inv_b[rows], hs)
        c1_t += np.bincount(np.remainder(k, t, out=k).ravel(), minlength=t)
    c1 = np.zeros(p, dtype=np.int64)
    np.add.at(c1, xs, c1_t[1:])
    c1ext = np.concatenate((c1, c1))
    c2 = np.bincount(xs[bs - 1], minlength=p)
    vs = np.flatnonzero(c2)
    total = 0
    for rows in _row_blocks(len(vs), len(us)):
        v = vs[rows]
        k = np.add.outer(p - v, us)
        total += int(c1ext[k].sum(axis=1) @ c2[v])
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
    """Build S, H, T and J for one instance and package the comparison.

    A and B are validated once; S, H and T stay int64 arrays from the set
    kernels to the count.
    """
    t, q = table.order, table.p
    a_set = _unit_array(a_set, t)
    b_set = _unit_array(b_set, t)
    s_vals = _distinct(q, _x_values(table, a_set), _x_values(table, b_set), np.add)
    h_set = _distinct(t, a_set, b_set, np.multiply)
    t_vals = _x_values(table, h_set)
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
