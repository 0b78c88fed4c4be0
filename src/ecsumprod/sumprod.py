"""Sum sets, product sets and the solution count that links them.

Given unit subsets A, B of Z_T for an orbit table of order T:

    sum set   S = { x(aP) + x(bP) mod p : a in A, b in B }
    index set H = { a*b mod T : a in A, b in B }
    prod set  T = { x(hP) : h in H }

and the quadruple count

    J = #{ (b1, b2, h, u) in B x B x H x S : x(h*b1^-1 P) + x(b2 P) = u }.

Every (a, b1, b2) in A x B x B injects into those quadruples via
(b1, b2, a*b1, x(aP) + x(b2 P)), so J >= #A * (#B)^2 holds exactly.
count_solutions counts them as one gather per (b1, h): with
g[w] = #{b2 in B : w + x(b2 P) in S}, J = sum over B x H of g(x(h*b1^-1 P)).

A set is a sorted, distinct int64 array, in and out: every public set
function validates its arguments into that form and returns it, and the
kernels work on it in blocks of BLOCK elements, sized so a block's
temporaries stay in L2. Validating a set is one sort and one gather from
residue.unit_sieve (6 us for 56 units at T = 9930, 25 ms for half the
units at T = 9999204), so sum_product_report goes through sum_set,
product_index_set and count_solutions as any caller would.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotAUnit
from .orbit import OrbitTable
from .residue import euler_phi, inv_mod, reduce_mod, unit_sieve

# Elements per transient block in the set and count kernels: a block's
# int64 temporaries (128 kB each) stay in a 2 MB L2 cache. count_solutions
# takes about 0.6 ms a call, timed in-process over the 32 cells of the
# perfbench sumprod sweep (#B = 56, mean #H = 2127, p near 10^4), with
# blocks of 2^14, 2^15 or 2^18 elements alike, and that sweep peaks 0.4 MB
# lower in RSS at 2^14 than at 2^15 (2-vCPU Xeon, numpy 2.4.6).
# Index products fit int64: T <= p + 1 + 2 sqrt(p) and p < 2^31.
BLOCK = 1 << 14


def _sorted_distinct(members) -> np.ndarray:
    """Sorted distinct integers of an iterable, as a new int64 array.

    Members must be Python or numpy integers: a bool, float or str member
    raises ValueError instead of being truncated or parsed. Deduplicates
    by sorting and masking equal neighbours (np.unique costs 20x more on a
    few thousand values), so the result never aliases the caller's array.
    A member beyond int64 makes the array one of Python ints instead,
    which every caller rejects.
    """
    if not (isinstance(members, np.ndarray) and members.dtype.kind in "iu"
            and np.can_cast(members.dtype, np.int64)):
        members = members.tolist() if isinstance(members, np.ndarray) else list(members)
        for m in members:
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
                raise ValueError(f"set member {m!r} is not an integer")
    try:
        arr = np.array(members, dtype=np.int64).ravel()  # a new array, sorted in place
    except OverflowError:
        arr = np.array([int(m) for m in members], dtype=object)
    arr.sort()
    keep = np.empty(len(arr), dtype=bool)
    keep[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def check_unit_subset(members, t: int) -> np.ndarray:
    """Normalize an iterable of residues to a unit subset of Z_t: a sorted,
    distinct int64 array.

    The members below t are tested by one gather from the cached sieve
    residue.unit_sieve(t). The smallest bad member decides the error:
    ValueError if it lies outside [1, t-1], NotAUnit if it is no unit of
    Z_t. The array is sorted, so a member below 1 can only be the first,
    and one at t or above is larger than any non-unit below t.
    """
    arr = _sorted_distinct(members)
    if len(arr) and arr[0] < 1:
        raise ValueError(f"set member {int(arr[0])} outside [1, {t - 1}]")
    n = int(arr.searchsorted(t))
    if n:  # 1 <= arr[0] < t, so t >= 2 and the sieve exists
        unit = unit_sieve(t)[arr[:n].astype(np.int64, copy=False)]
        k = int(unit.argmin())  # the first non-unit, if there is one
        if not unit[k]:
            raise NotAUnit(f"set member {int(arr[k])} is not a unit mod {t}")
    if n < len(arr):
        raise ValueError(f"set member {int(arr[n])} outside [1, {t - 1}]")
    return arr


def _blocks(n_rows: int, n_cols: int):
    """(rows, cols) slice pairs tiling an n_rows x n_cols grid, at most
    BLOCK cells a tile (at least one)."""
    width = max(1, min(n_cols, BLOCK))
    height = max(1, BLOCK // width)
    for j in range(0, n_cols, width):
        for i in range(0, n_rows, height):
            yield slice(i, i + height), slice(j, j + width)


def _distinct(n: int, xs: np.ndarray, ys: np.ndarray, op) -> np.ndarray:
    """Sorted distinct op(x, y) mod n over xs x ys, by a hit-mask filled in blocks."""
    hit = np.zeros(n, dtype=bool)
    for rows, cols in _blocks(len(xs), len(ys)):
        hit[reduce_mod(op.outer(xs[rows], ys[cols]), n)] = True
    return np.flatnonzero(hit)


def _x_values(table: OrbitTable, units: np.ndarray) -> np.ndarray:
    """Sorted distinct x(mP) over already checked units m, by a hit-mask on F_p."""
    hit = np.zeros(table.p, dtype=bool)
    hit[table.xs[units - 1]] = True
    return np.flatnonzero(hit)


def sum_set(table: OrbitTable, a_set, b_set) -> np.ndarray:
    """All values x(aP) + x(bP) in F_p, deduplicated and sorted."""
    xa = _x_values(table, check_unit_subset(a_set, table.order))
    xb = _x_values(table, check_unit_subset(b_set, table.order))
    return _distinct(table.p, xa, xb, np.add)


def product_index_set(a_set, b_set, t: int) -> np.ndarray:
    """All products a*b mod t; a subset of the units since A and B are."""
    return _distinct(t, check_unit_subset(a_set, t), check_unit_subset(b_set, t), np.multiply)


def prod_set(table: OrbitTable, a_set, b_set) -> np.ndarray:
    """All values x(abP), deduplicated and sorted."""
    return _x_values(table, product_index_set(a_set, b_set, table.order))


def solution_inputs(table: OrbitTable, b_set, h_set, sum_values):
    """The one input check of both J routes, count_solutions and
    charsum.solutions_spectrum: B and H unit subsets of Z_T and S distinct
    residues in [0, p), any iterables of integers, as sorted int64 arrays;
    None if any is empty (J = 0), before S's range is checked."""
    t, p = table.order, table.p
    bs = check_unit_subset(b_set, t)
    hs = check_unit_subset(h_set, t)
    us = _sorted_distinct(sum_values)
    if not len(bs) or not len(hs) or not len(us):
        return None
    if us[0] < 0 or us[-1] >= p:
        raise ValueError("sum values must be canonical residues mod p")
    return bs, hs, us


def count_solutions(table: OrbitTable, b_set, h_set, sum_values) -> int:
    """Exact quadruple count J over B x B x H x S, in integers only.

    With g[w] = #{b2 in B : w + x(b2 P) in S} on F_p and G[k] = g[x(kP)],

        J = sum over (b1, h) in B x H of G[h * b1^-1 mod T].

    g is built once from one p-length shifted copy of the indicator of S
    per b2 in B, in the narrowest unsigned dtype that holds #B. G is then
    gathered at the index products h * b1^-1 in blocks of at most BLOCK,
    as uint32 when they fit (T <= 2^16) and as int64 otherwise. For each
    b1, h * b1^-1 runs over every unit as h does, so when #H > phi(T) / 2
    the gather runs over the units outside H, and J is #B times the sum
    of G over the units minus that. The work is
    O(#B * min(#H, phi(T) - #H) + #B * p + T), the memory O(p) narrow
    entries (T < 2p) plus blocks, and the int64 complement of H when it is
    gathered. The character route in charsum shares only the input check,
    solution_inputs; a pure-Python triple loop in the tests pins this
    count on small instances.
    """
    inputs = solution_inputs(table, b_set, h_set, sum_values)
    if inputs is None:
        return 0
    bs, hs, us = inputs
    t, p = table.order, table.p
    dtype = np.min_scalar_type(len(bs))
    in_s = np.zeros(2 * p, dtype=np.uint8)  # 1_S written twice: no wrap mod p
    in_s[us] = 1
    in_s[us + p] = 1
    g = np.zeros(p, dtype=dtype)
    for v in table.xs[bs - 1].tolist():
        g += in_s[v:v + p]
    del in_s
    big_g = np.zeros(t, dtype=dtype)  # G on Z_T; index 0 is no unit, never read
    big_g[1:] = g[table.xs]  # np.take would copy the read-only xs
    del g
    index = np.uint32 if (t - 1) ** 2 < 2**32 else np.int64  # holds h * b1^-1
    total, sign = 0, 1
    if 2 * len(hs) > euler_phi(t):  # gather over the units outside H
        outside = unit_sieve(t).copy()
        total, sign = len(bs) * int(big_g[outside].sum()), -1
        outside[hs] = False
        hs = np.flatnonzero(outside)
        del outside
    inv_b = np.array([inv_mod(b, t) for b in bs.tolist()], dtype=index)
    hs = hs.astype(index)
    for rows, cols in _blocks(len(inv_b), len(hs)):
        k = reduce_mod(np.multiply.outer(inv_b[rows], hs[cols]), t)
        total += sign * int(np.take(big_g, k).sum())
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

    T is read off H, so the products a*b are formed once.
    """
    t, q = table.order, table.p
    a_set = check_unit_subset(a_set, t)
    b_set = check_unit_subset(b_set, t)
    s_vals = sum_set(table, a_set, b_set)
    h_set = product_index_set(a_set, b_set, t)
    t_vals = _x_values(table, h_set)
    j = count_solutions(table, b_set, h_set, s_vals)
    j_lower = len(a_set) * len(b_set) ** 2
    if j < j_lower:
        raise InvariantViolation(f"quadruple count {j} fell below the exact bound {j_lower}")
    # With S = F_p each (b1, b2, h) has exactly one u.
    if len(s_vals) == q and j != len(b_set) ** 2 * len(h_set):
        raise InvariantViolation(f"quadruple count {j} with S = F_p is not #B^2 #H")
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
