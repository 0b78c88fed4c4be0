"""Additive character sums over orbit x-coordinates.

The character psi_lambda(z) = exp(2*pi*i*lambda*z/p). Each sum here is that
of a histogram on F_p, sum_z hist[z] psi_lambda(z). At sampled lambdas,
histogram_sums factors psi_lambda(W*z1 + z0) into psi_lambda(W*z1) *
psi_lambda(z0) with W about sqrt(p), so each lambda needs about 2 sqrt(p)
roots and no p-length table. At every lambda the sums are
conj(fft(hist))[lambda], which pocketfft computes in O(p log p) for prime p
too (Bluestein's chirp-z). A real histogram makes the sum at p - lambda the
conjugate of the sum at lambda, so scans visit lambda in [1, (p-1)/2] only.
The same symmetry lets one complex transform carry two real histograms, as
its real and imaginary parts; the full scans pack their rows that way.

Orthogonality, (1/p) * sum_lambda psi_lambda(z) = [z = 0], is what turns
solution counting into the factored spectra in solutions_spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrivialCharacter, check_cap
from .orbit import OrbitTable
from .sumprod import check_unit_subset, solution_inputs
from .residue import inv_mod

# Full scans transform length-p histograms; keep them desk-sized.
SCAN_CAP = 100_000

# Bytes per block of bilinear-scan rows. A complex row of p cells carries
# two K-rows and is transformed in place (16p bytes); splitting its
# spectrum takes 20p bytes more, so a block holds max(1, BLOCK // (36p))
# complex rows. One scan at p = 10007 with #K = #M = 40 (blocks of 16
# K-rows) peaks at 2.94 MB under tracemalloc, within 3.0 MB.
# histogram_sums sizes its blocks of lambdas by the same budget.
BLOCK = 3 << 20


def _roots(j: np.ndarray, p: int) -> np.ndarray:
    """exp(2*pi*i*j/p) for an array j of residues mod p."""
    return np.exp(2j * np.pi * j / p)


def histogram_sums(hist: np.ndarray, lams) -> np.ndarray:
    """sum_z hist[z] * psi_lambda(z) at each lambda, for a histogram on F_p.

    With W = isqrt(p - 1) + 1 and z = W*z1 + z0, 0 <= z0 < W,
    psi_lambda(z) = psi_lambda(W*z1) * psi_lambda(z0). hist is laid out
    once as a float grid of ceil(p/W) rows of W (zero-padded), and its
    rows without support are dropped (a copy, made only then), so a zero
    histogram costs no pass.
    Each row is contracted against the W low roots psi_lambda(z0) (two
    real einsums, on their cos and sin parts), and the row sums against
    the high roots psi_lambda(W*z1) (a third). The roots come from _roots,
    for blocks of lambdas whose temporaries take about BLOCK bytes. Work
    is 2W multiply-adds per lambda for each row with support, at most
    about 2p; memory is 8p bytes for the grid, plus its live rows when
    some row is dropped, plus the tables, with no p-length roots table.
    The work does not shrink with the support inside a row, so a sparse
    histogram costs more than a gather over its support did: at 32
    lambdas and p = 9999991, 10^4 entries on 3037 rows take 0.55 s
    against 0.04 s, while p/2 entries take 0.62 s against 5.7 s. The sums
    are einsums, not BLAS dots: at
    p = 10^6 on 2 vCPUs the threaded BLAS dot took 8 ms a pass and
    einsum 1 ms.
    """
    p = len(hist)
    width = math.isqrt(p - 1) + 1  # W * W >= p
    grid = np.zeros(-(-p // width) * width)
    grid[:p] = hist
    grid = grid.reshape(-1, width)
    live = np.flatnonzero(grid.any(axis=1))
    if len(live) < len(grid):
        grid = grid[live]
    low, high = np.arange(width), live * width  # z0 and W*z1 < p
    lams = np.array([lam % p for lam in lams], dtype=np.int64)
    sums = np.empty(len(lams), dtype=complex)
    step = max(1, BLOCK // (160 * width))  # lambdas per block: ~160W bytes of temporaries each
    for start in range(0, len(lams), step):
        lam = lams[start:start + step]
        low_roots = _roots(np.multiply.outer(lam, low) % p, p)
        rows = (np.einsum("zj,lj->lz", grid, np.ascontiguousarray(low_roots.real))
                + 1j * np.einsum("zj,lj->lz", grid, np.ascontiguousarray(low_roots.imag)))
        high_roots = _roots(np.multiply.outer(lam, high) % p, p)
        sums[start:start + step] = np.einsum("lz,lz->l", rows, high_roots)
    return sums


def bilinear_sum(table: OrbitTable, k_set, m_set, lam: int) -> float:
    """sum over k of | sum over m of psi_lambda(x(kmP)) |, unit weights.

    k*m mod T never hits 0 for unit k, m, so every index has an
    x-coordinate.
    """
    t, p = table.order, table.p
    k_set = check_unit_subset(k_set, t)
    m_set = check_unit_subset(m_set, t)
    if not len(k_set) or not len(m_set):
        return 0.0
    xmat = table.xs[(k_set[:, None] * m_set[None, :]) % t - 1]
    return float(np.abs(_roots(lam % p * xmat % p, p).sum(axis=1)).sum())


def bilinear_sum_bound(nu: int, size_k: int, size_m: int, order: int, q: int) -> float:
    """The analytic ceiling the bilinear sums are measured against.

    (#K)^(1 - 1/(2 nu)) * (#M)^((nu+1)/(nu+2)) * T^((nu+1)/(nu(nu+2)))
    * q^(1/(4(nu+2))) * (ln q)^(1/(nu+2)), natural logarithm. As nu grows
    the #K exponent climbs to 1.
    """
    if nu < 1:
        raise DomainError(f"nu must be >= 1, got {nu}")
    if size_k < 1 or size_m < 1 or order < 1:
        raise DomainError("set sizes and the point order must be positive")
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    return (
        size_k ** (1 - 1 / (2 * nu))
        * size_m ** ((nu + 1) / (nu + 2))
        * order ** ((nu + 1) / (nu * (nu + 2)))
        * q ** (1 / (4 * (nu + 2)))
        * math.log(q) ** (1 / (nu + 2))
    )


@dataclass(frozen=True)
class CharSumReport:
    """Largest bilinear sum seen over a full nontrivial-character scan."""

    nu: int
    size_k: int
    size_m: int
    lam: int  # smallest lambda attaining the max up to roundoff (_first_max)
    value: float
    rhs: float
    ratio: float


def _half_spectrum_abs(xmat: np.ndarray, p: int) -> np.ndarray:
    """sum over rows j of |F_j(lambda)| at lambda = 1 .. p // 2, where F_j
    is the transform of the histogram of row j of xmat (values in [0, p)).

    Rows 2r and 2r + 1 are tallied straight into the real and imaginary
    parts of complex row r (an odd last row leaves its imaginary part 0),
    and one FFT transforms them all. With Z that transform and
    W[lambda] = conj(Z[p - lambda]), real histograms give
    F_2r = (Z + W)/2 and F_2r+1 = (Z - W)/(2i).
    """
    n = len(xmat)
    j = np.arange(n, dtype=np.int64)
    cells = 2 * xmat + (2 * p * (j // 2) + j % 2)[:, None]
    rows = np.bincount(cells.ravel(), weights=np.ones(cells.size),
                       minlength=2 * p * ((n + 1) // 2)).view(complex).reshape(-1, p)
    z = np.fft.fft(rows, axis=1, out=rows)
    lo = z[:, 1:p // 2 + 1]
    w = np.conj(z[:, :0:-1][:, :p // 2])
    total = np.abs(lo + w).sum(axis=0)
    np.subtract(lo, w, out=w)
    total += np.abs(w).sum(axis=0)
    return total / 2


def _fft_roundoff(p: int, mass: float) -> float:
    """16 eps ceil(log2 p) mass: the roundoff allowed in a value built from
    length-p FFTs whose inputs' norms multiply to mass (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 24)."""
    return 16 * np.finfo(float).eps * math.ceil(math.log2(p)) * mass


def _first_max(vals: np.ndarray, p: int, mass: int) -> tuple[int, float]:
    """(lambda, value) of the largest of vals[lambda - 1], lambda = 1 .. p // 2.

    vals are sums of |transform| of histograms of total mass `mass` on F_p.
    The value is the maximum itself. The lambda is the smallest one whose
    value lies within _fft_roundoff(p, mass) of it: sums that are equal
    exactly come out a few ulps apart. On a j = 0 curve, for one,
    (x, y) -> (zeta x, y) with zeta^3 = 1 can permute the orbit, so lambda,
    zeta lambda and zeta^2 lambda tie, and np.argmax alone would pick
    whichever the roundoff favours.
    """
    value = float(vals.max())
    return int(np.argmax(vals >= value - _fft_roundoff(p, mass))) + 1, value


def bilinear_ratio_scan(table: OrbitTable, k_set, m_set, nu: int) -> CharSumReport:
    """Max over every nontrivial lambda of the unit-weight bilinear sum.

    The inner sum for a row k is the transform of the histogram of
    x(kmP) over M; two rows share one complex FFT of length p, so the scan
    is O(#K * p log p). Only lambda in [1, (p-1)/2] is scanned: lambda and
    p - lambda give equal sums exactly. The reported lambda is the smallest
    attaining the max, up to roundoff (_first_max).
    """
    t, p = table.order, table.p
    check_cap("full character scan", p, SCAN_CAP)
    k_set = check_unit_subset(k_set, t)
    m_set = check_unit_subset(m_set, t)
    if not len(k_set) or not len(m_set):
        raise DomainError("scan needs nonempty K and M")
    rhs = bilinear_sum_bound(nu, len(k_set), len(m_set), t, p)
    xs = table.xs
    vals = np.zeros(p // 2)
    step = 2 * max(1, BLOCK // (36 * p))
    for start in range(0, len(k_set), step):
        vals += _half_spectrum_abs(xs[k_set[start:start + step, None] * m_set[None, :] % t - 1], p)
    lam, value = _first_max(vals, p, len(k_set) * len(m_set))
    return CharSumReport(nu=nu, size_k=len(k_set), size_m=len(m_set),
                         lam=lam, value=value, rhs=rhs, ratio=value / rhs)


def subgroup_sums(table: OrbitTable, lams) -> np.ndarray:
    """sum over k = 1 .. T-1 of psi_lambda(x(kP)) at each nontrivial lambda.

    The sums of the histogram of x(kP) over k (histogram_sums). The value
    is genuinely complex in general, and |sum| <= T - 1 always holds.
    """
    p = table.p
    lams = [lam % p for lam in lams]
    if 0 in lams:
        raise TrivialCharacter("subgroup sum over the trivial character is just T - 1")
    return histogram_sums(np.bincount(table.xs, minlength=p), lams)


def subgroup_sum(table: OrbitTable, lam: int) -> complex:
    """subgroup_sums at one lambda."""
    return complex(subgroup_sums(table, [lam])[0])


@dataclass(frozen=True)
class SubgroupScanReport:
    """Empirical size of the largest subgroup character sum for one curve."""

    max_abs: float
    lam: int  # smallest lambda attaining the max up to roundoff (_first_max)
    max_over_sqrt_p: float  # the quantity the square-root barrier talks about


def subgroup_scan(table: OrbitTable) -> SubgroupScanReport:
    """Max of |subgroup_sum| over every nontrivial lambda, from one FFT of
    the x-histogram; lambda is chosen as in bilinear_ratio_scan."""
    p = table.p
    check_cap("full character scan", p, SCAN_CAP)
    lam, value = _first_max(_half_spectrum_abs(table.xs[None, :], p), p, len(table.xs))
    return SubgroupScanReport(max_abs=value, lam=lam, max_over_sqrt_p=value / math.sqrt(p))


def solutions_spectrum(table: OrbitTable, b_set, h_set, sum_values) -> complex:
    """The character-expansion value of J, from count_solutions' inputs.

    Expanding the indicator of x(h b1^-1 P) + x(b2 P) - u = 0 through
    orthogonality factors J into three spectra:

        J = (1/p) * sum_lambda S1(lam) * S2(lam) * conj(S3(lam))

    with S1 over the (b1, h) population, S2 over B, S3 over S; only the
    u-factor enters with a minus sign. Pairing lambda with p - lambda
    conjugates every factor, so the total is real up to roundoff, and its
    real part is J. Only the input check, solution_inputs, is shared.
    """
    inputs = solution_inputs(table, b_set, h_set, sum_values)
    if inputs is None:
        return 0j
    bs, hs, us = inputs
    t, p = table.order, table.p
    xs = table.xs
    # How often each k = h * b1^-1 occurs over B x H, tallied on Z_T one b1
    # at a time (for fixed b1 the k are distinct), then moved to x(kP).
    pop = np.zeros(t, dtype=np.int64)
    for b in bs.tolist():
        pop[hs * inv_mod(b, t) % t] += 1
    # Two complex rows carry the three real histograms: h1 + i*h2 and h3.
    rows = np.zeros((2, p), dtype=complex)
    rows[0].real = np.bincount(xs, weights=pop[1:], minlength=p)
    rows[0].imag = np.bincount(xs[bs - 1], minlength=p)
    rows[1, us] = 1.0
    # One call for both: pocketfft plans a prime length afresh on every
    # call, and the plan costs more than a transform.
    z, f3 = np.fft.fft(rows, axis=1)
    # With F_j = fft(h_j) and W[k] = conj(Z[-k]), real h1 and h2 give
    # F1 = (Z + W)/2 and F2 = (Z - W)/(2i), so F1*F2 = (Z^2 - W^2)/(4i).
    # S1 S2 conj(S3) = conj(F1 F2) F3, and summed over all of Z_p:
    #     sum conj(Z^2) F3 - sum_k Z^2[-k] F3[k] = -4i * p * value.
    # einsum reads the reversed view in place, where np.dot would copy it,
    # and runs on the calling thread, where the BLAS complex dot wakes every
    # OpenBLAS thread (twice the wall time in CPU on an identities sweep).
    z *= z
    paired = z[0] * f3[0] + np.einsum("i,i", z[:0:-1], f3[1:])
    return complex((np.einsum("i,i", np.conjugate(z, out=z), f3) - paired) * 1j / (4 * p))
