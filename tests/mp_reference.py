"""High-precision mpmath references built from the definitions: the radial
solutions F_k and G_k, the Green function of the ball as the
whole-space Green function minus its Kelvin-image series (and its radial
form at the center), the inverse
Laplace weight w(v) of the n = 4 and 6 closed forms, and Gegenbauer sums
over float coefficients. Helpers for the test modules; pytest collects no
tests here."""

import functools

import mpmath as mp


def f_value(n, k, z):
    """F_k(z) = F(k, -rho; k + n/2; z)."""
    return mp.hyp2f1(k, -mp.mpf(n - 2) / 2, k + mp.mpf(n) / 2, z)


def _g_series(n, k, z):
    """The second solution F(-rho, 2-k-n; 2-k-n/2; z). For even n its lower
    parameter is a non-positive integer: for k >= 1 the series is cut after
    rho+1 terms, and at k = 0 the z^rho term is replaced by a z^rho log z
    term (the finite sum with the log term of the paper)."""
    rho, half = mp.mpf(n - 2) / 2, mp.mpf(n) / 2
    if n % 2:
        return mp.hyp2f1(-rho, 2 - k - n, 2 - k - half, z)
    if k == 0:
        m = n // 2 - 1
        total = sum(
            rho * mp.binomial(n - 2, i) * (-1) ** (i + 1) / (i - rho) * z**i
            for i in range(n - 1)
            if i != m
        )
        return total + rho * mp.binomial(n - 2, m) * (-1) ** (n // 2) * z**rho * mp.log(z)
    return sum(
        mp.rf(-rho, i) * mp.rf(2 - k - n, i) / (mp.rf(2 - k - half, i) * mp.factorial(i)) * z**i
        for i in range(n // 2)
    )


def g_value(n, k, z):
    """The second solution that vanishes at z = 1:
    _g_series - (_g_series(1) / F_k(1)) z^(k+rho) F_k, with F_k(1) from
    Gauss's sum Gamma(k+n/2) Gamma(n-1) / (Gamma(n/2) Gamma(k+n-1))."""
    rho, half = mp.mpf(n - 2) / 2, mp.mpf(n) / 2
    z = mp.mpf(z)
    f1 = mp.gamma(k + half) * mp.gamma(n - 1) / (mp.gamma(half) * mp.gamma(k + n - 1))
    c = _g_series(n, k, mp.mpf(1)) / f1
    return _g_series(n, k, z) - c * z ** (k + rho) * f_value(n, k, z)


@functools.lru_cache(maxsize=None)
def _boundary(n, k, r, dps):
    """G_k(r^2) / (F_k(r^2) r^(2 rho)), shared by every pair in one ball."""
    with mp.workdps(dps):
        r2 = mp.mpf(r) ** 2
        return g_value(n, k, r2) / (f_value(n, k, r2) * r2 ** (mp.mpf(n - 2) / 2))


def green(n, r, x, y, dps=30):
    """Green function of the ball |x| < r at the coordinate sequences x, y:

        C_n G_0(z) / z^rho
          - sum_k C_n F_k(|x|^2) F_k(|y|^2) s^k G_k(r^2) / (F_k(r^2) r^(2 rho)) C_k(cos theta),

    z = |x-y|^2 / ((1-|x|^2)(1-|y|^2) + |x-y|^2), s = |x||y|/r^2, summed
    until the majorant s^k (k+1)^n is below 10^-dps."""
    with mp.workdps(dps):
        x, y = [mp.mpf(v) for v in x], [mp.mpf(v) for v in y]
        rho, half = mp.mpf(n - 2) / 2, mp.mpf(n) / 2
        x2, y2 = mp.fsum(v * v for v in x), mp.fsum(v * v for v in y)
        d2 = mp.fsum((a - b) ** 2 for a, b in zip(x, y))
        z = d2 / ((1 - x2) * (1 - y2) + d2)
        s = mp.sqrt(x2 * y2) / mp.mpf(r) ** 2
        c = mp.fsum(a * b for a, b in zip(x, y)) / mp.sqrt(x2 * y2)
        image, gegenbauer = [], [mp.mpf(1), 2 * rho * c]
        k = 0
        while s**k * (k + 1) ** n > mp.mpf(10) ** -dps:
            if k >= 2:
                gegenbauer.append(
                    (2 * c * (k + rho - 1) * gegenbauer[-1] - (k + 2 * rho - 2) * gegenbauer[-2]) / k
                )
            radial = f_value(n, k, x2) * f_value(n, k, y2) * _boundary(n, k, r, dps)
            image.append(radial * s**k * gegenbauer[k])
            k += 1
        cn = mp.gamma(half - 1) / (4 * mp.pi**half)
        return float(cn * (g_value(n, 0, z) / z**rho - mp.fsum(image)))


def green_at_center(n, r, y, dps=40):
    """Green function of the ball |x| < r between the center and the
    coordinate sequence y: the image series is its k = 0 term (F_0 = 1), so

        C_n [G_0(|y|^2) / |y|^(2 rho) - G_0(r^2) / r^(2 rho)]."""
    with mp.workdps(dps):
        rho, half = mp.mpf(n - 2) / 2, mp.mpf(n) / 2
        y2, r2 = mp.fsum(mp.mpf(v) ** 2 for v in y), mp.mpf(r) ** 2
        cn = mp.gamma(half - 1) / (4 * mp.pi**half)
        return float(cn * (g_value(n, 0, y2) / y2**rho - g_value(n, 0, r2) / r2**rho))


def gegenbauer_sum(rho, a, x, dps=40):
    """(sum_k a_k C_k^(rho)(x), sum_k |a_k C_k^(rho)(x)|) as mpf at dps digits,
    the float coefficients a and the float cosine x taken exactly."""
    with mp.workdps(dps):
        rho, x = mp.mpf(rho), mp.mpf(x)
        c_prev, c, total, size = mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(0)
        for k, ak in enumerate(a):
            if k:
                c_prev, c = c, (2 * x * (k + rho - 1) * c - (k + 2 * rho - 2) * c_prev) / k
            total += ak * c
            size += abs(ak * c)
        return +total, +size


def laplace_weight(n, x2, r2, v, dps=50):
    """w(v) for n in {4, 6}, the float inputs taken exactly:
    2(1+r^2)/(1-r^2) exp(-2v/(1-r^2)) for n = 4, and for n = 6
    exp(-bv) (amp1 cosh(cv) + amp2 sinh(cv)/c) with b = (7-r^2)/(2(1-r^2)),
    c = sqrt(r^4-14r^2+1)/(2(1-r^2)) (complex above r^2 = 7-4 sqrt(3)),
    amp1 = 3(1 - r^2 x^2 + 3(r^2 - x^2)), amp2 = (3/2)(1 + x^2 r^2 + 5(x^2 + r^2))."""
    with mp.workdps(dps):
        x2, r2, v = mp.mpf(x2), mp.mpf(r2), mp.mpf(v)
        if n == 4:
            return float(2 * (1 + r2) / (1 - r2) * mp.exp(-2 * v / (1 - r2)))
        b = (7 - r2) / (2 * (1 - r2))
        c = mp.sqrt(mp.mpc(r2 * r2 - 14 * r2 + 1)) / (2 * (1 - r2))
        amp1 = 3 * (1 - r2 * x2 + 3 * (r2 - x2))
        amp2 = mp.mpf(3) / 2 * (1 + x2 * r2 + 5 * (x2 + r2))
        sinhc = v if c == 0 else mp.sinh(c * v) / c
        return float(mp.re(mp.exp(-b * v) * (amp1 * mp.cosh(c * v) + amp2 * sinhc)))


def radial_zeros(n, z, dps=40):
    """The rho zeros in k of F_k(z) for even n: mp.polyroots of the radial
    polynomial P_z(k) = sum_i (k)_i (-rho)_i z^i / i! (k+n/2+i)_(rho-i),
    F_k(z) Gamma(k+n/2+rho)/Gamma(k+n/2), at the float z taken exactly."""
    rho, half = n // 2 - 1, n // 2
    with mp.workdps(dps):
        z, total = mp.mpf(z), [mp.mpf(0)] * (rho + 1)  # highest power of k first
        for i in range(rho + 1):
            poly = [mp.rf(-rho, i) * z**i / mp.factorial(i)]
            for a in (*range(i), *range(half + i, half + rho)):  # times (k + a)
                poly = [hi + a * lo for hi, lo in zip(poly + [0], [0] + poly)]
            total = [t + p for t, p in zip(total, poly)]
        return mp.polyroots(total, maxsteps=200, extraprec=4 * dps)
