"""Per-instance identity checks.

These are the exact (or 1e-9-tight) facts the rest of the package leans
on; the verify CLI command and the sweep's identities mode both run this
suite. Every check returns a result instead of raising, so one violation
never hides another.
"""

import math
from dataclasses import dataclass

import numpy as np

from .charsum import bilinear_sum, roots_of_unity, solutions_spectrum, subgroup_sum
from .curve import INFINITY, scalar_mul
from .errors import IdentityHasNoX
from .extremal import mobius_identity_residual
from .orbit import OrbitTable, x_of
from .residue import euler_phi
from .rng import SplitMix64
from .sampling import sample_unit_subset
from .sumprod import count_solutions, product_index_set, sum_set

# Above this p, orthogonality and subgroup scans sample lambdas/arguments
# instead of walking all of F_p x F_p.
EXHAUSTIVE_CAP = 101


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def run_identity_suite(table: OrbitTable, n_points: int, seed: int) -> list[CheckResult]:
    """Run every identity check on one (curve, point) instance."""
    curve = table.curve()
    point = table.base_point()
    t, p = table.order, table.p
    rng = SplitMix64(seed)
    results = []

    # Lagrange: the group order annihilates P, and the recorded order divides it.
    ok = scalar_mul(curve, n_points, point) is INFINITY and n_points % t == 0
    results.append(_check("group_order", ok, f"N={n_points}, T={t}"))

    ok = np.array_equal(table.xs_array, table.xs_array[::-1])
    results.append(_check("orbit_symmetry", ok, f"T={t}"))

    # Orbit spot values against an independent double-and-add walk.
    bad = 0
    for _ in range(10):
        k = 1 + rng.below(10 * t)
        if k % t == 0:
            try:
                x_of(table, k)
                bad += 1
            except IdentityHasNoX:
                pass
            continue
        q = scalar_mul(curve, k % t, point)
        if q is INFINITY or x_of(table, k) != q[0]:
            bad += 1
    results.append(_check("orbit_spot_values", bad == 0, f"{bad} mismatches of 10"))

    # Character orthogonality: (1/p) sum_lambda psi_lambda(z) = [z = 0].
    roots = roots_of_unity(p)
    lams = np.arange(p, dtype=np.int64)
    if p <= EXHAUSTIVE_CAP:
        zs = range(p)
    else:
        zs = sorted({0} | {rng.below(p) for _ in range(64)})
    worst = 0.0
    for z in zs:
        total = roots[lams * z % p].sum() / p
        worst = max(worst, abs(total - (1.0 if z == 0 else 0.0)))
    results.append(_check("orthogonality", worst < 1e-9, f"max residual {worst:.3g}"))

    # Unit-orbit sieve identity, trivial character included.
    lam_list = [0, 1] + [rng.below(p) for _ in range(3)]
    worst = max(mobius_identity_residual(table, lam) for lam in lam_list)
    results.append(_check("mobius_identity", worst < 1e-9 * t, f"max residual {worst:.3g}"))

    # Trivial character collapses the bilinear sum to #K * #M exactly.
    phi = euler_phi(t)
    k_set = sample_unit_subset(t, min(16, phi), rng.next_u64())
    residual = abs(bilinear_sum(table, k_set, k_set, 0) - len(k_set) ** 2)
    results.append(_check("trivial_bilinear", residual < 1e-9, f"residual {residual:.3g}"))

    # Counting route and character route agree on J; exact lower bound holds.
    a_set = sample_unit_subset(t, min(8, phi), rng.next_u64())
    b_set = sample_unit_subset(t, min(8, phi), rng.next_u64())
    s_vals = sum_set(table, a_set, b_set)
    h_set = product_index_set(a_set, b_set, t)
    j = count_solutions(table, b_set, h_set, s_vals)
    spectrum = solutions_spectrum(table, a_set, b_set)
    # FFT roundoff bound (Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 24) through Parseval, |S1| <= #B #H and |S2| <= #B.
    tol = (16 * np.finfo(float).eps * math.ceil(math.log2(p))
           * len(b_set) ** 2 * len(h_set) * math.sqrt(len(s_vals)))
    ok = (
        abs(spectrum.real - j) < tol
        and abs(spectrum.imag) < tol
        and round(spectrum.real) == j
        and j >= len(a_set) * len(b_set) ** 2
    )
    results.append(_check(
        "solution_count", ok,
        f"J={j}, characters={spectrum.real:.6f}, lower={len(a_set) * len(b_set) ** 2}",
    ))

    # Subgroup sums can never beat the term count.
    if p <= EXHAUSTIVE_CAP:
        lam_iter = range(1, p)
    else:
        lam_iter = sorted({1 + rng.below(p - 1) for _ in range(32)})
    worst = max(abs(subgroup_sum(table, lam)) for lam in lam_iter)
    results.append(_check("subgroup_bound", worst <= t - 1 + 1e-9, f"max |sum| {worst:.6f}"))

    return results
