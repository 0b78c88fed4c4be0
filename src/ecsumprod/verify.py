"""Per-instance identity checks.

These are the exact (or 1e-9-tight) facts the rest of the package leans
on; the verify CLI command and the sweep's identities mode both run this
suite. Every check returns a result instead of raising, so one violation
never hides another. The checks draw from one SplitMix64 stream in a fixed
order; only orthogonality switches, above EXHAUSTIVE_CAP, from an
exhaustive walk to a sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .charsum import _fft_roundoff, _roots, histogram_sums, solutions_spectrum
from .curve import INFINITY, scalar_mul
from .extremal import mobius_identity_residuals
from .orbit import OrbitTable, x_of
from .residue import euler_phi
from .rng import SplitMix64
from .sampling import sample_unit_subset
from .sumprod import count_solutions, product_index_set, sum_set

# Above this p, the orthogonality check samples its root indices instead
# of walking all of F_p x F_p.
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

    ok = np.array_equal(table.xs, table.xs[::-1])
    results.append(_check("orbit_symmetry", ok, f"T={t}"))

    # Orbit spot values against an independent double-and-add walk; a draw
    # k = 0 mod T (kP the identity, no x) is skipped.
    bad = 0
    for _ in range(10):
        k = 1 + rng.below(10 * t)
        if k % t == 0:
            continue
        q = scalar_mul(curve, k % t, point)
        if q is INFINITY or x_of(table, k) != q[0]:
            bad += 1
    results.append(_check("orbit_spot_values", bad == 0, f"{bad} mismatches of 10"))

    # Character orthogonality: (1/p) sum_lambda psi_lambda(z) = [z = 0]. For
    # z != 0, lambda -> lambda z permutes F_p, so every such sum is
    # sum_j psi(j), read from histogram_sums of the constant histogram (the
    # factored pass the lambda sums use); z = 0 reads psi(0). The roots
    # are checked through psi_{j+k} = psi_j psi_k on pairs of sampled indices.
    if p <= EXHAUSTIVE_CAP:
        idx = np.arange(p, dtype=np.int64)
    else:
        idx = np.array([rng.below(p) for _ in range(64)], dtype=np.int64)
    roots = _roots(idx, p)
    product = np.abs(_roots(np.add.outer(idx, idx) % p, p)
                     - np.multiply.outer(roots, roots)).max()
    total = histogram_sums(np.ones(p), [1])[0]
    worst = max(abs(total) / p, abs(_roots(0, p) - 1.0), float(product))
    results.append(_check("orthogonality", worst < 1e-9, f"max residual {worst:.3g}"))

    # Unit-orbit sieve identity, trivial character included.
    lam_list = [0, 1] + [rng.below(p) for _ in range(3)]
    worst = float(mobius_identity_residuals(table, lam_list).max())
    results.append(_check("mobius_identity", worst < 1e-9 * t, f"max residual {worst:.3g}"))

    # Counting route and character route agree on J; exact lower bound holds.
    phi = euler_phi(t)
    a_set = sample_unit_subset(t, min(8, phi), rng.next_u64())
    b_set = sample_unit_subset(t, min(8, phi), rng.next_u64())
    s_vals = sum_set(table, a_set, b_set)
    h_set = product_index_set(a_set, b_set, t)
    j = count_solutions(table, b_set, h_set, s_vals)
    spectrum = solutions_spectrum(table, b_set, h_set, s_vals)
    # FFT roundoff bound through Parseval: the FFT row h1 + i h3 has
    # |h1| <= #B #H and |h3| = sqrt(#S), and g = 4i conj(F1) F3 is read at
    # x(B) with counts summing to #B.
    tol = _fft_roundoff(p, len(b_set) ** 2 * len(h_set) * math.sqrt(len(s_vals)))
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

    return results
