"""Additive character sums over orbit x-coordinates.

psi_lambda(z) = exp(2*pi*i*lambda*z/p), and each sum here is that of a
histogram on F_p, sum_z hist[z] psi_lambda(z). histogram_sums splits
z = W*z1 + z0 and the scans' matmul route lambda = W*l1 + l0, W about
sqrt(p), so psi factors into two tables of about sqrt(p) roots. At every
lambda the sums are conj(fft(hist))[lambda], O(p log p) in pocketfft at
prime p too (Bluestein's chirp-z). Real histograms have conjugate sums
at lambda and p - lambda, so scans stop at (p-1)/2, and the FFT scans and
solutions_spectrum carry two histograms per complex row; it reads a third
as a correlation: histogram_sums of the two spectra's product at its values.

Orthogonality, (1/p) * sum_lambda psi_lambda(z) = [z = 0], is what turns
solution counting into the factored spectra in solutions_spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrivialCharacter, check_cap
from .orbit import OrbitTable
from .sumprod import check_unit_subset, solution_inputs
from .residue import reduce_mod

# Full scans cost p or more per K-row; keep them desk-sized.
SCAN_CAP = 100_000

# Bytes per block. An FFT-scan complex row of p cells carries two K-rows,
# transformed in place (16p bytes) and split (20p more): max(1, BLOCK //
# (36p)) of them a block. Matmul-scan blocks take BLOCK // 3.
BLOCK = 3 << 20

# OpenBLAS runs a matmul of at most GEMM_MACS multiply-adds on the calling
# thread; larger ones wake its threads.
GEMM_MACS = 1 << 16


def _roots(j: np.ndarray, p: int) -> np.ndarray:
    """exp(2*pi*i*j/p) for an array j of residues mod p."""
    return np.exp(2j * np.pi * j / p)


def histogram_sums(hist: np.ndarray, lams) -> np.ndarray:
    """sum_z hist[z] * psi_lambda(z) at each lambda, for a histogram on F_p.

    With W = isqrt(p - 1) + 1 and z = W*z1 + z0, 0 <= z0 < W,
    psi_lambda(z) = psi_lambda(W*z1) * psi_lambda(z0). hist is laid out as
    a float grid of ceil(p/W) rows of W; rows without support are dropped
    (copied only then), so a zero histogram costs no pass. Rows meet
    the W low roots (einsums on their cos and sin parts), row sums the high
    roots, in blocks of lambdas of about BLOCK bytes. Work is 2W
    multiply-adds per lambda per live row; memory 8p bytes of grid, plus
    its live rows when some are dropped. einsum stays on the calling
    thread (a BLAS dot wakes OpenBLAS's).
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
    step = max(1, BLOCK // (160 * width))  # ~160W bytes of temporaries each
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
    * q^(1/(4(nu+2))) * (ln q)^(1/(nu+2)). As nu grows the #K exponent
    climbs to 1.
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
    lam: int  # _first_max's lambda
    value: float
    rhs: float
    ratio: float


def _half_spectrum_abs(xmat: np.ndarray, p: int) -> np.ndarray:
    """sum over rows j of |F_j(lambda)| at lambda = 1 .. p // 2, where F_j
    is the transform of the histogram of row j of xmat (values in [0, p)).

    Rows 2r and 2r + 1 are tallied into the real and imaginary parts of
    complex row r, and one FFT transforms them all. With Z that transform
    and W[lambda] = conj(Z[p - lambda]), F_2r = (Z + W)/2 and
    F_2r+1 = (Z - W)/(2i).
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


def _direct_route(size_m: int, p: int) -> bool:
    """Whether a scan takes the matmul route: #M^2 <= 2p."""
    return size_m * size_m <= 2 * p


def _matmul_kernel(p: int, size_m: int):
    """(kernel, K-rows per block), kernel(xmat) = _half_spectrum_abs(xmat, p).

    psi_lambda(x) = psi(W*l1*x) psi(l0*x) at lambda = W*l1 + l0, so a row's
    sums at all lambda < H*W are an (H x #M) by (#M x W) product of roots
    from a p-length table, in matmuls of 2+ rows and <= GEMM_MACS
    multiply-adds."""
    half = p // 2
    width = min(math.isqrt(half) + 1, GEMM_MACS // (2 * size_m))
    rows = half // width + 1  # H*W > p // 2
    parts = -(-rows // (GEMM_MACS // (size_m * width)))
    rows = -(-rows // parts) * parts
    roots = _roots(np.arange(p), p)
    low, high = np.arange(width), np.arange(rows)[:, None] * width

    def kernel(xmat):
        a = roots[reduce_mod(xmat[:, None, :] * high, p)].reshape(len(xmat), parts, -1, size_m)
        sums = np.matmul(a, roots[reduce_mod(xmat[:, :, None] * low, p)][:, None])
        return np.abs(sums).sum(axis=0).ravel()[1:half + 1]

    # bytes a K-row: index, quotient and roots of each factor; sums; |sums|
    row_bytes = 24 * (size_m * (rows + width) + rows * width)
    return kernel, max(1, BLOCK // 3 // row_bytes)


def _fft_roundoff(p: int, mass: float) -> float:
    """16 eps ceil(log2 p) mass: the roundoff allowed in a value built from
    length-p FFTs whose inputs' norms multiply to mass (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 24)."""
    return 16 * np.finfo(float).eps * math.ceil(math.log2(p)) * mass


def _first_max(vals: np.ndarray, p: int, mass: int) -> tuple[int, float]:
    """(lambda, value) of the largest of vals[lambda - 1], lambda = 1 .. p // 2.

    vals are sums of |transform| of histograms of total mass `mass` on F_p.
    The value is the maximum; the lambda the smallest within
    _fft_roundoff(p, mass) of it, as equal sums come out a few ulps apart
    (on a j = 0 curve, (x, y) -> (zeta x, y), zeta^3 = 1, can permute the
    orbit: lambda, zeta lambda and zeta^2 lambda tie).
    """
    value = float(vals.max())
    return int(np.argmax(vals >= value - _fft_roundoff(p, mass))) + 1, value


def bilinear_ratio_scan(table: OrbitTable, k_set, m_set, nu: int) -> CharSumReport:
    """Max over every nontrivial lambda of the unit-weight bilinear sum.

    Row k's inner sums are the transform of the histogram of x(kmP) over
    M: by matmul (_matmul_kernel, #K #M ceil(p/2) complex multiply-adds)
    if _direct_route(#M, p), else by length-p FFTs of two rows each,
    O(#K p log p). lambda runs over [1, (p-1)/2]; the one reported is
    _first_max's.
    """
    t, p = table.order, table.p
    check_cap("full character scan", p, SCAN_CAP)
    k_set = check_unit_subset(k_set, t)
    m_set = check_unit_subset(m_set, t)
    if not len(k_set) or not len(m_set):
        raise DomainError("scan needs nonempty K and M")
    rhs = bilinear_sum_bound(nu, len(k_set), len(m_set), t, p)
    if _direct_route(len(m_set), p):
        kernel, step = _matmul_kernel(p, len(m_set))
    else:
        kernel, step = (lambda xmat: _half_spectrum_abs(xmat, p)), 2 * max(1, BLOCK // (36 * p))
    vals = np.zeros(p // 2)
    for start in range(0, len(k_set), step):
        vals += kernel(table.xs[k_set[start:start + step, None] * m_set[None, :] % t - 1])
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
    lam: int  # _first_max's lambda
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
    real part is J. h1 + i*h3 go through one length-p FFT, unpacked into
    g = 4i conj(F1) F3 (F_j = fft(h_j) = conj(S_j)). J's B side is the
    correlation sum_k g[k] conj(F2[k]) = sum_v h2[v] sum_k g[k] psi_k(v):
    histogram_sums at the #x(B) distinct x(bP), weighted by their counts.
    O(#B #H + #x(B) p + p log p): for many distinct x(bP) the sums cost
    more than a second length-p transform would.
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
        pop[hs * pow(b, -1, t) % t] += 1
    values, counts = np.unique(xs[bs - 1], return_counts=True)  # h2
    row = np.zeros(p, dtype=complex)
    row.real = np.bincount(xs, weights=pop[1:], minlength=p)
    row.imag[us] = 1.0
    z = np.fft.fft(row, out=row)
    # With W[k] = conj(Z[-k]), real h1 and h3 give F1 = (Z + W)/2 and
    # F3 = (Z - W)/(2i). g is summed over all of Z_p, k unpaired with -k,
    # and its real and imaginary parts apart, so the imaginary part of the
    # result stays a roundoff check.
    # einsum stays on the calling thread, where a BLAS dot wakes OpenBLAS's.
    w = np.roll(z[::-1], 1)
    np.conjugate(w, out=w)
    g = z + w
    np.conjugate(g, out=g)
    g *= np.subtract(z, w, out=w)
    total = np.einsum("v,v", counts, histogram_sums(g.real, values)
                      + 1j * histogram_sums(g.imag, values))
    return complex(total / (4j * p))
