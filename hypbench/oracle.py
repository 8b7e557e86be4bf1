"""Independent high-precision references for the spectral series, in mpmath.

The package sums F_k(z) = F(k, -rho; k + n/2; z) term by term in floats, once
per k. This oracle instead computes the whole sequence F_0 .. F_K at one z from
two directly summed starting values and the three-term recurrence in k that the
Euler integral

    F_k(z) = Gamma(k+n/2) / (Gamma(k) Gamma(n/2))
             * int_0^1 t^(k-1) (1-t)^(n/2-1) (1-z t)^rho dt

gives after one integration by parts. Forward recurrence loses about
log10(1/z) digits per step (the other solution grows like z^-k), so the working
precision is raised by that much up front. G_k, a terminating series for odd n,
comes from mpmath.hyp2f1. Used for odd n, where no closed form exists.
"""

import math

import mpmath

# digits kept beyond the ones the recurrence is expected to lose
_GUARD_DIGITS = 30


def _direct(k, rho, half_n, z, eps):
    """F(k, -rho; k + n/2; z) summed term by term at the current precision."""
    total = term = mpmath.mpf(1)
    i = 0
    while True:
        term = term * (k + i) * (i - rho) * z / ((k + half_n + i) * (i + 1))
        i += 1
        total += term
        if abs(term) < eps and i > 2:
            return total


def f_sequence(n, z, kmax):
    """[F_0(z), ..., F_kmax(z)] as mpf numbers, for 0 < z < 1 and kmax >= 2."""
    rho = mpmath.mpf(n - 2) / 2
    c0 = mpmath.mpf(n) / 2
    digits = _GUARD_DIGITS + kmax * math.log10(1 / z) + n * math.log10(kmax + 1)
    with mpmath.workdps(int(digits) + 1):
        zz = mpmath.mpf(z)
        eps = mpmath.mpf(10) ** (-int(digits) - 1)
        f1 = _direct(1, rho, c0, zz, eps)
        f2 = _direct(2, rho, c0, zz, eps)
        # J(m) = int t^m (1-t)^(c0-1) (1-z t)^rho dt, F_(m+1) = J(m) P_m
        j_prev, j_cur = f1 / c0, f2 / (c0 * (c0 + 1))
        p = c0 * (1 + c0)  # P_1 = Gamma(2 + c0) / (Gamma(2) Gamma(c0))
        out = [mpmath.mpf(1), f1, f2]
        for m in range(1, kmax - 1):
            j_next = (
                (m * (1 + zz) + c0 + (1 + rho) * zz) * j_cur - m * j_prev
            ) / (zz * (m + c0 + 1 + rho))
            p = p * (m + 1 + c0) / (m + 1)
            j_prev, j_cur = j_cur, j_next
            out.append(j_cur * p)
    return [+v for v in out]


def g_value(n, k, z):
    """G_k(z) = F(-rho, 2-k-n; 2-k-n/2; z) for odd n (terminating)."""
    return mpmath.hyp2f1(-mpmath.mpf(n - 2) / 2, 2 - k - n, 2 - k - mpmath.mpf(n) / 2, z)


def _gegenbauer(rho, kmax, c):
    out = [mpmath.mpf(1), 2 * rho * c]
    for k in range(2, kmax + 1):
        out.append((2 * c * (k + rho - 1) * out[-1] - (k + 2 * rho - 2) * out[-2]) / k)
    return out


def _terms_needed(rho, base, bound, tol=1e-16):
    """Smallest K for which the majorant (k+rho)/rho C_k(1) base^k bound has
    fallen below tol and keeps falling."""
    c_at_1 = 1.0
    k = 0
    while True:
        k += 1
        c_at_1 *= (k + 2 * rho - 1) / k
        growth = base * (k + 2 * rho) / (k + 1) * (k + 1 + rho) / (k + rho)
        if (k + rho) / rho * c_at_1 * base**k * bound < tol and growth < 1:
            return max(k, 3)


def poisson_reference(n, r, ax, cos_thetas):
    """Poisson kernel at |x| = ax and the given boundary angle cosines."""
    rho = (n - 2) / 2
    # F_k(ax^2)/F_k(r^2) <= (1 - r^2)^-rho, since F_k(z) = E (1 - zT)^rho
    kmax = _terms_needed(rho, ax / r, (1 - r * r) ** -rho)
    with mpmath.workdps(30):
        fx = f_sequence(n, ax * ax, kmax)
        fr = f_sequence(n, r * r, kmax)
        q = mpmath.mpf(ax) / r
        mrho = mpmath.mpf(n - 2) / 2
        a = [(k + mrho) / mrho * q**k * fx[k] / fr[k] for k in range(kmax + 1)]
        area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2) * mpmath.mpf(r) ** (n - 1)
        out = []
        for c in cos_thetas:
            ck = _gegenbauer(mrho, kmax, mpmath.mpf(c))
            out.append(float(mpmath.fsum(ak * cc for ak, cc in zip(a, ck)) / area))
    return out


def green_reference(n, r, ax, ay, cos_thetas):
    """Green function between radii ax and ay at the given angle cosines."""
    lo, hi = min(ax, ay), max(ax, ay)
    rho = (n - 2) / 2
    base = max(lo / hi, lo * hi / (r * r))
    kmax = _terms_needed(rho, base, 1e4 * (1 - r * r) ** -rho)
    with mpmath.workdps(30):
        mrho = mpmath.mpf(n - 2) / 2
        flo = f_sequence(n, lo * lo, kmax)
        fhi = f_sequence(n, hi * hi, kmax)
        fr = f_sequence(n, r * r, kmax)
        mlo, mhi, mr = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(r)
        t, s = mlo / mhi, mlo * mhi / (mr * mr)
        pref = mpmath.gamma(mrho) / (4 * mpmath.pi ** (mpmath.mpf(n) / 2))
        b = []
        for k in range(kmax + 1):
            bracket = t**k * g_value(n, k, mhi * mhi) / mhi ** (2 * mrho) - s**k * g_value(
                n, k, mr * mr
            ) * fhi[k] / (fr[k] * mr ** (2 * mrho))
            b.append(pref * flo[k] * bracket)
        out = []
        for c in cos_thetas:
            ck = _gegenbauer(mrho, kmax, mpmath.mpf(c))
            out.append(float(mpmath.fsum(bk * cc for bk, cc in zip(b, ck))))
    return out
