import hashlib
import math
import tracemalloc

import mp_reference
import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings, strategies as st
from reference_helpers import gegenbauer

from hypball import specfun
from hypball.geometry import unit_sphere_area
from hypball.specfun import (
    _G0_SPLIT,
    Dimension,
    F_k,
    G_k,
    _as_order,
    _block_end,
    _g0_terms,
    _g0_values,
    gegenbauer_at_one,
    gegenbauer_sequence,
    gegenbauer_series,
    wronskian_residual,
)


def test_dimension_validation():
    with pytest.raises(ValueError):
        Dimension(2)
    with pytest.raises(ValueError):
        Dimension(3.5)
    assert Dimension(5).rho == 1.5
    assert Dimension(6).is_even
    assert not Dimension(7).is_even


# hand-expanded terminating series, fixed before the implementation
@pytest.mark.parametrize(
    "n, k, z, value",
    [
        (4, 1, 0.36, 0.88),
        (4, 3, 0.5, 0.7),
        (6, 2, 0.25, 0.8125),
    ],
)
def test_F_k_oracles(n, k, z, value):
    assert F_k(Dimension(n), k, z) == pytest.approx(value, abs=1e-15)


# by hand from the vanishing solution: G_1 = (1-z)^(n-1), and at n = 4
# G_2 = 2 (1-z)^3 (z + (1-z)/2)
@pytest.mark.parametrize(
    "n, k, z, value",
    [
        (4, 2, 0.3, 0.4459),
        (6, 1, 0.1, 0.59049),
    ],
)
def test_G_k_oracles(n, k, z, value):
    assert G_k(Dimension(n), k, z) == pytest.approx(value, abs=1e-15)


def test_F_k_at_zero_and_preconditions():
    dim = Dimension(5)
    assert F_k(dim, 7, 0.0) == 1.0
    with pytest.raises(ValueError):
        F_k(dim, -1, 0.5)
    with pytest.raises(ValueError):
        F_k(dim, 2, 1.0)
    with pytest.raises(ValueError):
        G_k(dim, 2, 0.0)


def test_g0_log_branch_n4():
    # 1 - z^2 + 2 z log z at z = 0.5
    dim = Dimension(4)
    assert G_k(dim, 0, 0.5) == pytest.approx(0.75 + math.log(0.5), rel=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 17])
def test_wronskian_identity(n, k):
    # F_k G_(k+1) - z a_k F_(k+1) G_k = (1-z)^(n-1), relative to its terms
    dim = Dimension(n)
    for z in (0.05, 0.37, 0.75, 0.95):
        assert abs(wronskian_residual(dim, k, z)) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_wronskian_residual_at_high_orders(n):
    # the orders 0..2000 at the benchmark's z = r^2
    dim = Dimension(n)
    ks = np.arange(2001)
    for z in (0.09, 0.36, 0.9025):
        assert np.max(np.abs(wronskian_residual(dim, ks, z))) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_wronskian_residual_sees_a_shifted_g(monkeypatch, n):
    # the second solution G_k + c z^(k+rho) F_k holds the continuous
    # identity for any c; the discrete one fixes c = 0 for k >= 1
    dim, z, g_k = Dimension(n), 0.36, specfun.G_k

    def shifted(dim, k, z):
        return g_k(dim, k, z) + 1e-3 * z ** (k + dim.rho) * F_k(dim, k, z)

    monkeypatch.setattr(specfun, "G_k", shifted)
    assert np.all(np.abs(wronskian_residual(dim, np.array([0, 1, 2]), z)) > 1e-6)


# G_0 beyond the CLI's n range too; at n >= 10 the finite-sum reference
# needs 120 digits near z = 1 (at 60 it is 100 % off at n = 30, z = 0.99)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 22, 24, 30])
def test_g0_against_mpmath_across_split(n):
    # both forms of G_0, on either side of the switch between them
    dim = Dimension(n)
    with mp.workdps(120):
        for z in (0.01, 0.05, 0.0999, 0.1, 0.3, 0.37, 0.75, 0.95, 0.99):
            ref = mp_reference.g_value(n, 0, z)
            assert abs((G_k(dim, 0, z) - ref) / ref) < 1e-13


def _g0_one_at_a_time(dim, z):
    # G_0 of a lone z, each z with its own 1-D cumprod and sum of exactly
    # its own number of series terms
    n, rho = dim.n, dim.rho
    if z >= _G0_SPLIT:
        w = 1 - z
        size = int(math.log(1e-17 * z) / math.log(w)) + 1
        i = np.arange(size - 1)
        t = np.cumprod(np.concatenate(([1.0], (n / 2 + i) * w / (n + i))))
        return rho / (n - 1) * w ** (n - 1) * float(t.sum())
    coeffs, amp = _g0_terms(n)
    lz = math.log(z) if dim.is_even else 1.0
    return sum(c * z**i for i, c in coeffs.items()) + amp * z**rho * lz


# 0.1 is the split itself; just above it the series sums 394, 273 (> 256)
# and 183 (> 128) terms, at 0.999 and 1 - 1e-9 fewer than 8
_G0_ZS = [1e-300, 1e-12, 0.003, 0.0999, 0.1, 0.10000000000000002, 0.14, 0.2,
          0.5, 0.9, 0.999, 1 - 1e-9]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_g0_values_match_one_z_at_a_time(n):
    dim = Dimension(n)
    zs = _G0_ZS + _G0_ZS[::-1]  # both sides of the split, interleaved
    expected = [_g0_one_at_a_time(dim, z) for z in zs]
    assert np.array(_g0_values(dim, zs)).tobytes() == np.array(expected).tobytes()
    assert [_g0_values(dim, [z])[0] for z in zs] == expected
    assert [G_k(dim, 0, z) for z in zs] == expected
    assert _g0_values(dim, []) == []
    # more rows above the split than one block of the term array holds
    zs = np.linspace(0.05, 0.999, 2500).tolist()
    expected = [_g0_one_at_a_time(dim, z) for z in zs]
    assert np.array(_g0_values(dim, zs)).tobytes() == np.array(expected).tobytes()


@given(st.integers(3, 8), st.lists(st.floats(5e-324, 1 - 2**-53), max_size=40))
@settings(max_examples=60, deadline=None)
def test_g0_values_bits_do_not_depend_on_the_batch(n, zs):
    dim = Dimension(n)
    values = np.array(_g0_values(dim, zs))
    assert values.tobytes() == np.array([_g0_values(dim, [z])[0] for z in zs]).tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_wronskian_rows_match_scalar_calls(n):
    # one F_k range and one G_k array per (n, z): each entry has the bits of
    # its scalar call, across block edges and in any order of the orders
    dim = Dimension(n)
    ks = np.array([64, 0, 1, 2, 63, 30, 191, 192, 5, 0])
    for z in (0.05, 0.37, 0.95, 0.995):
        rows = wronskian_residual(dim, ks, z)
        assert rows.tobytes() == np.array([wronskian_residual(dim, k, z)
                                           for k in ks.tolist()]).tobytes()
        assert type(wronskian_residual(dim, 3, z)) is float
        assert wronskian_residual(dim, np.array([], dtype=int), z).shape == (0,)


def test_wronskian_residual_rejects_non_integer_order():
    # a non-integer order must not be truncated to the residual at int(k)
    dim = Dimension(5)
    for k in (2.5, -1):
        with pytest.raises(ValueError):
            wronskian_residual(dim, k, 0.3)


def test_large_k_flattening():
    # F_k(z) -> (1-z)^rho, deviation shrinking along doubling k
    for n in (4, 5, 6):
        dim = Dimension(n)
        for z in (0.2, 0.6, 0.9):
            devs = [
                abs(F_k(dim, k, z) - (1 - z) ** dim.rho) for k in (10, 20, 40, 80)
            ]
            assert all(a > b for a, b in zip(devs, devs[1:]))
            assert devs[-1] < 10 / 80


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_radial_sweep_matches_scalar_loop(n):
    # an array of orders runs the scalar loop's float operations in order
    dim = Dimension(n)
    ks = np.arange(601)
    for z in (0.09, 0.36, 0.81, 0.9025, 0.98):
        assert np.array_equal(F_k(dim, ks, z), [F_k(dim, k, z) for k in range(601)])
        assert np.array_equal(G_k(dim, ks, z), [G_k(dim, k, z) for k in range(601)])


# SHA-256 prefixes of the order arrays of _BLOCK_RANGES at the z of
# test_block_requests_keep_the_array_bits, as F_k gave them before ranges
# were block requests
_BLOCK_DIGESTS = {
    3: "32104379347044bb",
    4: "d35ac872e5e52b69",
    5: "0b3c70765a1d19df",
    6: "860ae4ef768eb406",
    7: "9355ece215746350",
    8: "e9f1171633e284a1",
}
# whole blocks, one cut below its end, an empty range and one across two blocks
_BLOCK_RANGES = [range(0, 64), range(64, 192), range(192, 448), range(192, 300),
                 range(70, 70), range(40, 100)]


@pytest.mark.parametrize("n", list(_BLOCK_DIGESTS))
def test_block_requests_keep_the_array_bits(n):
    # a range of orders is the radial records' one-block request: it gives
    # the bits of the array of its orders and of the scalar calls
    dim, digest = Dimension(n), hashlib.sha256()
    for z in (0.0, 0.04, 0.36, 0.9025, 0.999):
        for orders in _BLOCK_RANGES:
            block = F_k(dim, orders, z)
            assert block.tobytes() == F_k(dim, np.arange(orders.start, orders.stop), z).tobytes()
            digest.update(block.tobytes())
            # every 16th order and the last: each scalar call runs its own
            # recurrence, 6 ms at z = 0.999
            ks = sorted({*orders[::16], *orders[-1:]})
            assert [F_k(dim, k, z) for k in ks] == block[[k - orders.start for k in ks]].tolist()
        assert F_k(dim, range(0, 64), z)[0] == 1.0
    assert digest.hexdigest()[:16] == _BLOCK_DIGESTS[n]
    for orders in (range(-1, 5), range(0, 10, 2), range(5, 0, -1)):
        with pytest.raises(ValueError):
            F_k(dim, orders, 0.5)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("z, g_rel", [(0.9025, 1e-12), (0.98, 1e-12)])
def test_radial_layer_against_mpmath(n, z, g_rel):
    # large k and z -> 1, against the definitions; G_k is the solution that
    # vanishes at z = 1, summed from positive terms (the alternating odd-n
    # series it replaced lost 1.2e-9 relative at n=5, z=0.98)
    dim = Dimension(n)
    ks = [0, 1, 7, 50, 200, 600, 1000, 2000]
    with mp.workdps(60):
        for k, f, g in zip(ks, F_k(dim, np.array(ks), z), G_k(dim, np.array(ks), z)):
            f_ref = mp_reference.f_value(n, k, z)
            g_ref = mp_reference.g_value(n, k, z)
            assert abs((f - f_ref) / f_ref) < 1e-12
            assert abs((g - g_ref) / g_ref) < g_rel


@pytest.mark.parametrize("n", [4, 6, 8])
def test_even_radial_sweep_without_cancellation(n):
    # even-n F_k sums the positive terms of Pfaff's transformation; the
    # alternating series in z lost 9e-11 relative at n = 8, z = 0.99
    dim = Dimension(n)
    ks = np.array([0, 1, 2, 5, 64, 447, 1500])
    with mp.workdps(40):
        for z in (0.9025, 0.99):
            for k, f in zip(ks.tolist(), F_k(dim, ks, z).tolist()):
                ref = mp_reference.f_value(n, k, z)
                assert abs((f - ref) / ref) <= 2e-15
    # F_0 = 1 exactly, also at the z where the product rounds to 1 + 2^-52
    for z in np.linspace(0.0, 0.999, 1000).tolist():
        assert F_k(dim, 0, z) == 1.0 and F_k(dim, ks, z)[0] == 1.0


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_recurrence_at_block_edges(n):
    # odd-n F_k starts its backward recurrence past the end of k's block of
    # orders (63, 191, 447, 959, 1983, ...): both sides of every edge, for z
    # from near 0 to near 1, against mpmath and scalar against array
    dim = Dimension(n)
    ks = [0, 1, 63, 64, 191, 192, 447, 448, 959, 960, 1983, 1984, 2000]
    with mp.workdps(40):
        for z in (1e-4, 0.25, 0.9025, 0.98, 0.995):
            for k, f in zip(ks, F_k(dim, np.array(ks), z)):
                assert F_k(dim, k, z) == f
                ref = mp_reference.f_value(n, k, z)
                assert abs((f - ref) / ref) < 1e-12


# SHA-256 prefixes of F_k(z) at the orders 0..447 (blocks 63, 191 and 447),
# as the per-call chunk loop gave them: at z = 0.999 the recurrence starts
# about 39,000 orders up and runs through ten 4096-order chunks of a_k
_CHUNKED_F_DIGESTS = {
    (3, 0.9025): "e8e9b10a922e24ca",
    (3, 0.999): "849311e24f7f3732",
    (5, 0.9025): "e17e3e98d6f94e5f",
    (5, 0.999): "c90c12b9c0201c71",
    (7, 0.9025): "f4a72172e47c8a9c",
    (7, 0.999): "db9d8e2490242d08",
}


@pytest.mark.parametrize("n, z", list(_CHUNKED_F_DIGESTS))
def test_odd_recurrence_across_chunks(n, z):
    dim = Dimension(n)
    f = F_k(dim, np.arange(448), z)
    assert hashlib.sha256(f.tobytes()).hexdigest()[:16] == _CHUNKED_F_DIGESTS[n, z]
    with mp.workdps(40):
        for k in (0, 1, 63, 64, 191, 192, 447):
            ref = mp_reference.f_value(n, k, z)
            assert abs((f[k] - ref) / ref) < 1e-12


def test_odd_recurrence_memory_near_the_boundary():
    # the ln(1e-17)/ln z ~ 2e5 orders above the block run in chunks, so a
    # 64-order block at z = 0.9998 does not hold them all at once
    tracemalloc.start()
    try:
        F_k(Dimension(5), np.arange(64), 0.9998)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("n", range(3, 9))
def test_series_tail_bound_lemmas(n):
    # the three facts behind the proven tail bounds of the spectral series:
    # F_(k+1) <= F_k, (1-z)^rho <= F_k and G_(k+1)/G_k <= (n+k-1)/(n/2+k-1)
    # for k >= 1, up to a relative 1e-14 for rounding
    dim = Dimension(n)
    ks = np.arange(1, 2002)
    slack = 1 + 1e-14
    for z in (1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.995):
        f = F_k(dim, ks, z)
        assert np.all(f[1:] <= f[:-1] * slack)
        assert np.all((1 - z) ** dim.rho <= f * slack)
        g = G_k(dim, ks, z)
        step = (n + ks[:-1] - 1) / (n / 2 + ks[:-1] - 1)
        assert np.all(g[1:] <= g[:-1] * step * slack)


@given(st.floats(0.25, 3.0), st.integers(0, 40), st.floats(-1.0, 1.0))
@settings(max_examples=80)
def test_gegenbauer_against_scipy(v, k, x):
    ref = sps.eval_gegenbauer(k, v, x)
    assert gegenbauer(v, k, x) == pytest.approx(ref, rel=1e-9, abs=1e-9)


@given(st.floats(0.25, 3.0), st.integers(1, 60), st.floats(-1.0, 1.0))
@settings(max_examples=80)
def test_gegenbauer_bounded_by_value_at_one(v, k, x):
    assert abs(gegenbauer(v, k, x)) <= gegenbauer_at_one(v, k) * (1 + 1e-12)


def test_gegenbauer_chebyshev_limit():
    # v=0 convention of the test helper (test_accept_08's log expansion):
    # C_k^(0) = 2 T_k / k
    for k in (1, 2, 5, 9):
        for x in (-0.8, 0.1, 0.99):
            expect = 2 * math.cos(k * math.acos(x)) / k
            assert gegenbauer(0.0, k, x) == pytest.approx(expect, abs=1e-12)
    assert gegenbauer(0.0, 0, 0.3) == 1.0


def test_gegenbauer_at_one():
    assert gegenbauer_at_one(1.0, 3) == pytest.approx(4.0)
    # matches the sequence evaluated at the endpoint
    for v in (0.5, 1.0, 2.5):
        seq = gegenbauer_sequence(v, 12, np.array(1.0))
        for k in (1, 4, 12):
            assert seq[k] == pytest.approx(gegenbauer_at_one(v, k), rel=1e-13)
    with pytest.raises(ValueError):
        gegenbauer_at_one(0.0, 2)
    with pytest.raises(ValueError, match="v > 0"):
        gegenbauer_sequence(0.0, 2, 0.3)


def test_gegenbauer_ratio_at_one():
    # C_{k+1}(1)/C_k(1) = (k+n-2)/(k+1) at v = (n-2)/2
    for n in (4, 5, 6):
        v = (n - 2) / 2
        for k in range(6):
            ratio = gegenbauer_at_one(v, k + 1) / gegenbauer_at_one(v, k)
            assert ratio == pytest.approx((k + n - 2) / (k + 1), rel=1e-13)


def recurrence_reference(v, kmax, x):
    """C_0^(v)(x) .. C_kmax^(v)(x) by the three-term recurrence written out
    in full at every order: the float operations gegenbauer_sequence must
    keep, bit for bit."""
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + np.shape(x))
    out[0] = 1.0
    if kmax < 1:
        return out
    c_prev, c = 1.0, 2 * v * x
    out[1] = c
    for k in range(2, kmax + 1):
        c_prev, c = c, (2 * x * (k + v - 1) * c - (k + 2 * v - 2) * c_prev) / k
        out[k] = c
    return out


_cosines = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(-1.0, 1.0),
)


@given(
    # the half-integer rho of n = 3..8, and any v, whose k+v-1 and k+2v-2 round
    st.one_of(st.sampled_from([0.5, 1, 1.5, 2, 2.5, 3]), st.floats(0.01, 4.0)),
    st.integers(0, 3000),
    st.one_of(_cosines, _cosines.map(np.float64), st.lists(_cosines, max_size=6)),
)
@example(0.5, 0, 0.3)
@example(1, 1, [-1.0, -0.0, 1.0])
@example(2.5, 2, -5e-324)
@example(1.5, 0, [0.2, 0.9])
@example(3, 2, [])
@settings(max_examples=60, deadline=None)
def test_gegenbauer_sequence_keeps_the_recurrence_bits(v, kmax, x):
    if isinstance(x, list):
        x = np.array(x)
    got, want = gegenbauer_sequence(v, kmax, x), recurrence_reference(v, kmax, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # each cosine of an array gets the bits of the scalar call
    for i, xi in enumerate(np.atleast_1d(x).tolist()):
        assert gegenbauer_sequence(v, kmax, xi).tobytes() == got.reshape(kmax + 1, -1)[:, i].tobytes()


@given(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),  # rho of n = 3..8
    # lengths across the block ends 63, 191 and 447 of the cached step factors
    st.integers(0, 1000),
    st.integers(0, 2**32 - 1),
    st.lists(_cosines, min_size=1, max_size=6),
)
@example(3.0, 448, 0, [1.0, -1.0, 0.0, -0.0, 5e-324, -1e-310])
@example(0.5, 64, 1, [-0.999, 0.5])
@example(2.0, 192, 2, [0.3])
@settings(max_examples=40, deadline=None)
def test_gegenbauer_series_rows_keep_the_float_bits(v, size, seed, xs):
    # the terms of a convergent table: decaying, of either sign
    a = np.random.default_rng(seed).standard_normal(size) * 0.99 ** np.arange(size)
    got = gegenbauer_series(v, a, np.array(xs))
    assert got.shape == (len(xs),)
    for value, x in zip(got.tolist(), xs):
        single = gegenbauer_series(v, a, x)
        assert type(single) is float
        assert np.float64(single).tobytes() == np.float64(value).tobytes()
        assert gegenbauer_series(v, a, np.float64(x)) == single


@pytest.mark.parametrize("v", [0.5, 1.5, 3.0])
def test_gegenbauer_series_matches_the_sequence(v):
    a = np.random.default_rng(5).standard_normal(500) * 0.98 ** np.arange(500)
    x = np.cos(np.linspace(0.0, math.pi, 9))
    want = gegenbauer_sequence(v, a.size - 1, x).T @ a
    assert np.allclose(gegenbauer_series(v, a, x), want, rtol=1e-12, atol=1e-12)
    assert gegenbauer_series(v, a[:0], 0.3) == 0.0
    with pytest.raises(ValueError):
        gegenbauer_series(0.0, a, 0.3)


def checked_order(k):
    """_as_order's general path: np.asarray, a sign and an integrality check."""
    ka = np.asarray(k)
    if np.any(ka < 0) or np.any(ka != np.round(ka)):
        raise ValueError("k must be a non-negative integer")
    return ka.astype(int) if ka.ndim else int(ka)


@pytest.mark.parametrize("k", [
    0, 7, 2**40, -1, np.int64(3), np.int64(-3), 2.0, 2.5, -1.0,
    np.array([], dtype=int), np.array([], dtype=float), np.arange(5), np.array([3, -1]),
    np.array([1.0, 2.0]), np.array([1.0, 2.5]), np.array([2, 5], dtype=np.int32),
    np.array(4), np.array(-2), np.array(2.0), np.array(2.5), np.arange(6).reshape(2, 3),
], ids=lambda k: f"{type(k).__name__}-{np.asarray(k).dtype}-{np.asarray(k).tolist()}")
def test_as_order_matches_the_checked_conversion(k):
    try:
        want = checked_order(k)
    except ValueError:
        with pytest.raises(ValueError, match="non-negative integer"):
            _as_order(k)
        return
    got = _as_order(k)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


def test_block_end_matches_the_doubling_blocks():
    # 0..63, then each block twice as long as the last
    end, size = 63, 64
    for k in range(100001):
        if k > end:
            size *= 2
            end += size
        assert _block_end(k) == end
    assert [_block_end(k) for k in (0, 63, 64, 191, 192, 447, 448)] == [
        63, 63, 191, 191, 447, 447, 959,
    ]


def test_gegenbauer_sequence_shapes():
    x = np.linspace(-1, 1, 7)
    seq = gegenbauer_sequence(1.5, 9, x)
    assert seq.shape == (10, 7)
    assert np.allclose(seq[3], [gegenbauer(1.5, 3, xi) for xi in x])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_gegenbauer_orthogonality(n):
    # int_0^pi C_k C_l sin^(n-2) = delta_kl (rho/(k+rho)) C_k(1) w_{n-1}/w_{n-2}
    dim = Dimension(n)
    rho = dim.rho
    nodes, wts = np.polynomial.legendre.leggauss(192)
    theta = 0.5 * math.pi * (nodes + 1)
    wts = 0.5 * math.pi * wts
    seq = gegenbauer_sequence(rho, 10, np.cos(theta))
    weight = np.sin(theta) ** (n - 2)
    ratio = unit_sphere_area(n - 1) / unit_sphere_area(n - 2)
    for k in range(11):
        for l in range(k, 11):
            val = np.sum(wts * weight * seq[k] * seq[l])
            if k == l:
                expect = rho / (k + rho) * gegenbauer_at_one(rho, k) * ratio
                assert val == pytest.approx(expect, rel=1e-8)
            else:
                assert abs(val) < 1e-8


def test_generating_function_dn():
    # sum_k t^k C_k^(rho)(c) = (1 - 2tc + t^2)^(-rho)
    for n, t, c in ((5, 0.4, 0.3), (6, 0.55, -0.7), (4, 0.25, 0.9)):
        rho = (n - 2) / 2
        seq = gegenbauer_sequence(rho, 400, np.array(c))
        total = np.sum(seq * np.power(t, np.arange(401)))
        assert total == pytest.approx(
            (1 - 2 * t * c + t * t) ** (-rho), rel=1e-10
        )
