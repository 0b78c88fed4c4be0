"""The small-sum-set construction and the sieve identity behind it.

Pick the units a of Z_T whose orbit x-coordinate falls below a window H.
Sums of two such x-values live in [0, 2H-2], so the sum set is small by
fiat; the product set can never exceed phi(T). The interesting quantity is
how max(#S, #T) compares to sqrt(p * #A).
"""

import math
from dataclasses import dataclass

import numpy as np

from .charsum import histogram_sums
from .errors import InvariantViolation
from .orbit import OrbitTable
from .residue import divisors, euler_phi, mobius, units_of
from .sumprod import prod_set, sum_set


def units_with_x_below(table: OrbitTable, window: int) -> np.ndarray:
    """Units a of Z_T with x(aP) < window, as a sorted int64 array."""
    if window < 0:
        raise ValueError("window must be nonnegative")
    units = units_of(table.order)
    return units[table.xs[units - 1] < window]


@dataclass(frozen=True)
class ExtremalReport:
    """Sizes and the theorem 3 ratio for one window construction A = B."""

    h_window: int
    size_a: int
    size_s: int
    size_t: int
    lhs: float  # max(#S, #T)
    rhs: float | None  # sqrt(p * #A); absent when A is empty
    ratio: float | None  # lhs / rhs; absent when A is empty
    predicted_size_a: float  # phi(T)^2 / (2p), the expected #A at H = phi(T)/2


def extremal_report(table: OrbitTable, window: int | None = None) -> ExtremalReport:
    """Run the construction at the given window (default floor(phi(T)/2)).

    An empty A is reported, not raised: sizes are zero, and rhs and the
    ratio are absent. Sums of two x-values below H lie in 0 .. 2H - 2, so
    #S > 2H - 1 raises InvariantViolation. Once 2H - 2 >= p the interval
    wraps, and the bound is #S <= p, which always holds.
    """
    t, p = table.order, table.p
    phi = euler_phi(t)
    if window is None:
        window = phi // 2
    a_set = units_with_x_below(table, window)
    s_vals = sum_set(table, a_set, a_set)
    if len(s_vals) > max(0, 2 * window - 1):
        raise InvariantViolation(f"sum set of {len(s_vals)} exceeds 2H - 1 at H = {window}")
    t_vals = prod_set(table, a_set, a_set)
    lhs = float(max(len(s_vals), len(t_vals)))
    rhs = math.sqrt(p * len(a_set)) if len(a_set) else None
    return ExtremalReport(
        h_window=window,
        size_a=len(a_set),
        size_s=len(s_vals),
        size_t=len(t_vals),
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs else None,
        predicted_size_a=phi * phi / (2 * p),
    )


def mobius_identity_residuals(table: OrbitTable, lams) -> np.ndarray:
    """|LHS - RHS| of the unit-orbit sieve at each character lambda.

    LHS sums psi_lambda(x(aP)) over the units a of Z_T. RHS sieves by
    divisors d of T with Mobius weights, summing psi over the multiples of
    d below T. Identity-point terms are omitted on both sides; their
    would-be contributions carry total weight sum_{d | T} mu(d) = 0 for
    T >= 2, so the identity is exact as computed. lambda = 0 degenerates
    to phi(T) = sum_{d | T} mu(d) (T/d - 1), and gives exactly 0.0.

    Each side is tallied into a histogram on F_p, LHS from the units and RHS
    from the weighted multiples (on Z_T first, then carried to F_p through
    x). The identity is linear in psi_lambda, so the residuals are the sums
    of their difference, which is exactly 0 when the identity holds.
    """
    t, p = table.order, table.p
    if t < 2:
        raise ValueError("identity needs order >= 2")
    xs = table.xs
    lhs = np.bincount(xs[units_of(t) - 1], minlength=p)
    weight = np.zeros(t, dtype=np.int64)  # weight[k]: sum of mu(d), d | T and d | k
    for d in divisors(t):
        mu = mobius(d)
        if mu:
            weight[::d] += mu
    rhs = np.bincount(xs, weights=weight[1:], minlength=p)
    return np.abs(histogram_sums(lhs - rhs, lams))


def mobius_identity_residual(table: OrbitTable, lam: int) -> float:
    """mobius_identity_residuals at one lambda."""
    return float(mobius_identity_residuals(table, [lam])[0])
