"""Special-function substrate: the radial solutions F_k (bounded at 0) and
G_k (vanishing at z = 1) of the hyperbolic Laplacian on the ball,
Gegenbauer polynomials, and the discrete Wronskian identity that ties F_k
and G_k together. The one hypergeometric summation kernel is _hyp_sweep,
the terminating series of positive terms behind even-n F_k (after Pfaff's
transformation); odd-n F_k comes from a backward recurrence in k."""

import functools
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np


@dataclass(frozen=True)
class Dimension:
    """Space dimension n of the ball model, n >= 3."""

    n: int

    def __post_init__(self):
        if self.n != int(self.n) or int(self.n) < 3:
            raise ValueError("dimension must be an integer >= 3")
        object.__setattr__(self, "n", int(self.n))

    @property
    def rho(self):
        # exactly (n-2)/2; a half-integer for odd n
        return (self.n - 2) / 2

    @property
    def is_even(self):
        return self.n % 2 == 0


def _hyp_sweep(a, b, c, z):
    """F(a, b; c; z) for a non-positive integer b, elementwise over an array
    c: the terminating series, summed in -b steps. A scalar c takes the float
    operations of one array element, so scalar and array values agree bit
    for bit."""
    term = total = np.ones(np.shape(c))
    for i in range(round(-b)):
        term = term * (a + i) * (b + i) * z / ((c + i) * (1 + i))
        total = total + term
    return total


def _as_order(k):
    """k as a non-negative integer order: an int, or an int array for an array
    k; a non-negative int, or int array, comes back as it is."""
    if type(k) is int and k >= 0:
        return k
    if type(k) is np.ndarray and k.ndim and k.dtype == int and (not k.size or k.min() >= 0):
        return k
    ka = np.asarray(k)
    if np.any(ka < 0) or np.any(ka != np.round(ka)):
        raise ValueError("k must be a non-negative integer")
    return ka.astype(int) if ka.ndim else int(ka)


def _block_end(k):
    """Last order of the block of orders holding the int order k: the blocks
    are 0..63 and then each twice as long as the last, so 63, 191, 447, 959,
    1983, ..."""
    return 64 * (2 ** (k // 64 + 1).bit_length() - 1) - 1


# orders per chunk of the odd-n recurrence's a_k
_CHUNK = 4096


@functools.lru_cache(maxsize=4)
def _a_chunk(n, j):
    """The recurrence's a_k for the orders of chunk j, 4096j+1 .. 4096(j+1),
    highest first, as a tuple shared by every z. The chunks are aligned to
    multiples of 4096 so that the fresh z of cold tables reuse them (below
    z = 0.98 a block up to 1983 starts in chunk 0). At most 4 chunks are
    kept, 131 KB each (4096 Python floats), so about 0.5 MB in all."""
    ks = np.arange(_CHUNK * j + 1, _CHUNK * (j + 1) + 1)
    a = ks * (ks + n - 1) / ((ks + n / 2 - 1) * (ks + n / 2))
    return tuple(a[::-1].tolist())


def _f_recurrence(dim, top, z, k0, stop):
    """[F_k0(z), ..., F_min(top, stop-1)(z)] for odd n and 0 < z < 1; see F_k.
    The orders run down from start in the chunks of _a_chunk; those above top
    are run without keeping their values and the last top+1 fill a list, so
    memory does not grow with the ln(1e-17)/ln z orders above top."""
    start = top + math.ceil(math.log(1e-17) / math.log(z)) + 2
    a = chain.from_iterable(_a_chunk(dim.n, j)[max(_CHUNK * (j + 1) - start, 0) :]
                            for j in range((start - 1) // _CHUNK, -1, -1))
    f, f_next = 1.0, 0.0
    for ak in islice(a, start - top - 1):
        f, f_next = f + z * (f - ak * f_next), f
    values = [0.0] * (top + 1)
    for i, ak in zip(range(top, -1, -1), a):
        f, f_next = f + z * (f - ak * f_next), f
        values[i] = f
    return np.array(values[k0:stop]) / values[0]


def _f_range(dim, k, z):
    """[F_k(z) for k in the range k], a step-1 range from k >= 0: for even n
    one sweep over the orders, F_0 set to 1.0; for odd n, for each block of
    orders it meets, one recurrence from that block's end (_block_end), cut
    to the orders of the range, so one block costs one recurrence."""
    if dim.is_even:
        ks = np.arange(k.start, k.stop)
        f = (1 - z) ** dim.rho * _hyp_sweep(dim.n / 2, -dim.rho, ks + dim.n / 2, z / (z - 1))
        if k.start == 0 and len(k):
            f[0] = 1.0
        return f
    if z == 0:
        return np.ones(len(k))  # F_k(0) = 1
    blocks, k0 = [np.empty(0)], k.start
    while k0 < k.stop:
        top = _block_end(k0)
        blocks.append(_f_recurrence(dim, top, z, k0, k.stop))
        k0 = top + 1
    return blocks[1] if len(blocks) == 2 else np.concatenate(blocks)


def F_k(dim, k, z):
    """Bounded radial solution F_k(z) = F(k, -rho; k + n/2; z), F_k(0) = 1.

    For even n, F_k = (1-z)^rho F(n/2, -rho; k+n/2; z/(z-1)) (DLMF 15.8.1):
    rho+1 positive terms, so nothing cancels as z -> 1, and F_0 = 1.0 exactly
    (the product can round to 1 + 2^-52). For odd n, F_k is the minimal
    solution (characteristic roots 1 and 1/z) of the recurrence
    F_(k-1) = F_k + z (F_k - a_k F_(k+1)), a_k = k(k+n-1)/((k+n/2-1)(k+n/2))
    (DLMF 15.5(ii)), run backwards from F_(N+1) = 0, F_N = 1 and normalised
    by F_0 = 1 (Miller's algorithm). N is ln(1e-17)/ln z orders past the end
    of the block of orders holding k (_block_end), so the start's error is
    below 1e-17 and a value depends only on (n, k, z): an integer array k
    gives the array of F_k(z), equal bit for bit to the scalar values.
    A range of orders (step 1, start >= 0) is one block request, the form
    the radial records use: only its start and step are checked and nothing
    is gathered. An array k is gathered from the range of its smallest to
    largest order.
    """
    if not 0 <= z < 1:
        raise ValueError("F_k needs z in [0, 1)")
    if type(k) is range:
        if k.start < 0 or k.step != 1:
            raise ValueError("a range of orders needs start >= 0 and step 1")
        return _f_range(dim, k, z)
    k = _as_order(k)
    ks = np.atleast_1d(k)
    lo = int(ks.min(initial=0))
    f = _f_range(dim, range(lo, int(ks.max(initial=-1)) + 1), z)[ks - lo]
    return f if np.ndim(k) else float(f[0])


# G_0 is the finite sum below this z and the series in 1 - z above it; on
# its side each form is within 3e-15 relative of mpmath for n <= 24
_G0_SPLIT = 0.1


@functools.cache
def _g0_terms(n):
    """The c_i and the amplitude a of G_0's small-z form in dimension n."""
    rho = (n - 2) / 2
    c = {i: rho * math.comb(n - 2, i) * (-1) ** (i + 1) / (i - rho)
         for i in range(n - 1) if i != rho}
    return c, (rho * math.comb(n - 2, int(rho)) * (-1) ** (n // 2) if n % 2 == 0
               else -sum(c.values()))


@functools.cache
def _g0_ratio_parts(n):
    """n/2 + i and n + i for every i below the most terms summed above the split."""
    i = np.arange(int(math.log(1e-17 * _G0_SPLIT) / math.log(1 - _G0_SPLIT)) + 1)
    return n / 2 + i, n + i


def _g0_series_terms(n, zs):
    """w = 1 - z, the number of terms summed, and the terms of F(1, n/2; n; w)
    for each z >= _G0_SPLIT in the list zs. Row j of the (len(zs), max size)
    array is the cumprod of 1 and the ratios (n/2 + i) w/(n + i); the tail
    past its first sizes[j] terms is below w^size / (1 - w) < 1e-17."""
    ws = [1 - z for z in zs]
    sizes = [int(math.log(1e-17 * z) / math.log(w)) + 1 for z, w in zip(zs, ws)]
    top, (num, den) = max(sizes), _g0_ratio_parts(n)
    t = np.empty((len(zs), top))
    t[:, 0] = 1.0
    np.multiply.outer(ws, num[: top - 1], out=t[:, 1:])
    np.divide(t[:, 1:], den[: top - 1], out=t[:, 1:])
    return ws, sizes, np.multiply.accumulate(t, axis=1, out=t)


def _g0_values(dim, zs):
    """[G_0(z) for z in zs], zs a list of floats in (0, 1).

    Below _G0_SPLIT, the finite sum over i != rho of c_i z^i, c_i = rho
    binom(n-2, i) (-1)^(i+1) / (i - rho), plus a z^rho term that makes
    G_0(1) = 0: a z^rho log z with a = rho binom(n-2, rho) (-1)^(n/2) for
    even n, a z^rho with a = -sum c_i for odd n. Term by term this gives
    rho G_0 - z G_0' = rho (1-z)^(n-2). The sum cancels as z -> 1, so above
    the split G_0 = rho/(n-1) w^(n-1) F(1, n/2; n; w), w = 1 - z, whose
    terms are positive and shrink by a factor below w.

    The series terms of every z above the split come from one array, and
    each row is summed on its own, as NumPy's pairwise summation order
    depends on the length; the small-z sums take Python floats, which cost
    less than NumPy calls for the few rows of a one-point call. So each z
    gets the bits of a list of that z alone."""
    n, rho = dim.n, dim.rho
    above, series = [z for z in zs if z >= _G0_SPLIT], []
    # blocks of 1024 rows keep the term array below 3.3 MB
    for block in range(0, len(above), 1024):
        ws, sizes, t = _g0_series_terms(n, above[block : block + 1024])
        series += [rho / (n - 1) * w ** (n - 1) * float(np.add.reduce(row[:size]))
                   for row, w, size in zip(t, ws, sizes)]
    series = iter(series)
    coeffs, amp = _g0_terms(n)
    log = math.log if dim.is_even else lambda z: 1.0
    return [next(series) if z >= _G0_SPLIT else
            sum(c * z**i for i, c in coeffs.items()) + amp * z**rho * log(z)
            for z in zs]


def _bernstein_means(c, z):
    """[sum_i binom(m, i) c_i (1-z)^i z^(m-i) for m = 0 .. len(c)-1] by de
    Casteljau steps c_j <- z c_j + (1-z) c_(j+1): convex combinations, so
    positive c neither overflow, underflow nor cancel."""
    out = np.empty(c.size)
    for m in range(c.size):
        out[m] = c[0]
        c = z * c[:-1] + (1 - z) * c[1:]
    return out


def G_k(dim, k, z):
    """Second radial solution, the one that vanishes at z = 1:
    F(-rho, 2-k-n; 2-k-n/2; z) - c z^(k+rho) F_k(z) with G_k(1) = 0 (c = 0
    for even n at k = 0 and odd n at k >= 1). The Green coefficient's bracket
    does not depend on c, but the image series of green_function does; for
    k >= 1 the discrete Wronskian identity (wronskian_residual) fixes c.
    G_0 is _g0_values; for k >= 1 (DLMF 15.10 with Pfaff's transformation)
    and p_i = (n/2)_i/(n)_i,

        G_k(z) = (1-z)^(n-1) / p_(k-1) * sum_(i<k) binom(k-1, i) p_i (1-z)^i z^(k-1-i),

    positive terms, so large k never overflows and z -> 1 never cancels. An
    integer array k gives the array of G_k(z), bit for bit the scalar values.
    """
    k = _as_order(k)
    if not 0 < z < 1:
        raise ValueError("G_k needs z in (0, 1)")
    m = int(np.max(k, initial=0))
    i = np.arange(m - 1)
    p = np.cumprod(np.concatenate(([1.0], (dim.n / 2 + i) / (dim.n + i))))[:m]  # p_0 .. p_(m-1)
    positive = (1 - z) ** (dim.n - 1) * _bernstein_means(p, z) / p
    g = np.concatenate((_g0_values(dim, [z]), positive))
    return g[k] if np.ndim(k) else float(g[k])


def gegenbauer_sequence(v, kmax, x):
    """All of C_0^(v)(x) .. C_kmax^(v)(x), v > 0, shape (kmax+1,) + np.shape(x):
    one sweep of k C_k = 2x (k+v-1) C_(k-1) - (k+2v-2) C_(k-2) in place on
    the rows, 2x taken once and the step factors k+v-1, k+2v-2 Python floats
    from one np.arange, so each cosine of an array gets the bits of its own
    call. A sum over the C_k needs none of them: see gegenbauer_series."""
    if v <= 0:
        raise ValueError("needs v > 0")
    ks = np.arange(2, kmax + 1)
    steps = zip(range(2, kmax + 1), (ks + v - 1).tolist(), (ks + 2 * v - 2).tolist())
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    rows, x2, t = out.reshape(kmax + 1, x.size), 2 * x.reshape(x.size), np.empty(x.size)
    rows[0], rows[1:2] = 1.0, v * x2
    for k, a, b in steps:
        np.multiply(x2, a, out=t)
        np.multiply(t, rows[k - 1], out=t)
        np.multiply(rows[k - 2], b, out=rows[k])
        np.subtract(t, rows[k], out=rows[k])
        np.divide(rows[k], k, out=rows[k])
    return out


@functools.lru_cache(maxsize=64)
def _clenshaw_steps(v, end):
    """2(k+v)/(k+1) and (k+2v)/(k+2) for k = 0..end, as lists of Python floats."""
    ks = np.arange(end + 1)
    return (2 * (ks + v) / (ks + 1)).tolist(), ((ks + 2 * v) / (ks + 2)).tolist()


def gegenbauer_series(v, a, x):
    """sum_k a_k C_k^(v)(x) over the orders of the array a, v > 0, by Clenshaw's
    recurrence b_k = a_k + x (2(k+v)/(k+1)) b_(k+1) - ((k+2v)/(k+2)) b_(k+2)
    run down to b_0, the sum, with no C_k(x); its factors are cached per block
    of orders (_block_end), as each table has its own length. x is a float (a
    float back) or an array (an array back, each entry with its float's bits)."""
    if v <= 0:
        raise ValueError("needs v > 0")
    K = len(a)
    p, q = _clenshaw_steps(v, _block_end(max(K - 1, 0)))
    steps = zip(reversed(a.tolist()), reversed(p[:K]), reversed(q[:K]))
    if type(x) is float or np.ndim(x) == 0:
        x, b1, b2 = float(x), 0.0, 0.0
        for ak, pk, qk in steps:
            b1, b2 = ak + x * pk * b1 - qk * b2, b1
        return b1
    x = np.asarray(x, dtype=float)
    b1, b2, t = np.zeros(x.shape), np.zeros(x.shape), np.empty(x.shape)
    for ak, pk, qk in steps:
        np.multiply(x, pk, out=t)
        t *= b1
        t += ak
        b2 *= qk
        b1, b2 = np.subtract(t, b2, out=b2), b1
    return b1


def gegenbauer_at_one(v, k):
    """C_k^(v)(1) = (2v)_k / k!, accumulated as a product of ratios so large
    k stays in range."""
    if v <= 0:
        raise ValueError("needs v > 0")
    return math.prod((2 * v + j - 1) / j for j in range(1, _as_order(k) + 1))


def wronskian_residual(dim, k, z):
    """Residual of the discrete Wronskian (Casoratian) identity

        F_k G_(k+1) - z a_k F_(k+1) G_k = (1-z)^(n-1),  a_k = k(k+n-1)/((k+n/2-1)(k+n/2)),

    of F_k and G_k (G_k times a factor in k solves F_k's recurrence, see
    F_k; Gautschi, SIAM Review 9, 1967), divided by the sum of the two terms
    on the left: roundoff for all admissible (n, k, z). Read from one F_k
    range and one G_k array of the orders 0 .. max k + 1. k is a
    non-negative integer, or an integer array (each entry a scalar call's
    bits)."""
    k = _as_order(k)
    if not 0 < z < 1:
        raise ValueError("needs z in (0, 1)")
    ks = np.atleast_1d(k)
    top = int(ks.max(initial=0)) + 2
    f, g = F_k(dim, range(top), z), G_k(dim, np.arange(top), z)
    a = ks * (ks + dim.n - 1) / ((ks + dim.n / 2 - 1) * (ks + dim.n / 2))
    left, right = f[ks] * g[ks + 1], z * a * f[ks + 1] * g[ks]
    out = (left - right - (1 - z) ** (dim.n - 1)) / (left + right)
    return out if np.ndim(k) else float(out[0])
