import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

from hypball.geometry import unit_sphere_area
from hypball.specfun import (
    Dimension,
    F_k,
    G_k,
    HypParams,
    g0_branch,
    gegenbauer,
    gegenbauer_at_one,
    gegenbauer_sequence,
    hyp2f1,
    pochhammer,
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


def test_pochhammer():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-2.0, 3) == 0.0
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


def test_hyp_params_validation():
    with pytest.raises(ValueError):
        HypParams(1.0, 1.0, 2.0, 1.0)
    # gamma = -2 with alpha not a suitable non-positive integer
    with pytest.raises(ValueError):
        HypParams(0.5, -4.0, -2.0, 0.3)
    with pytest.raises(ValueError):
        HypParams(-3.0, -4.0, -2.0, 0.3)
    HypParams(-1.0, -4.0, -2.0, 0.3)


def test_hyp2f1_tol_validation():
    with pytest.raises(ValueError):
        hyp2f1(HypParams(1.0, -1.0, 3.0, 0.5), 0.0)


# hand-expanded truncated series, fixed before the implementation
@pytest.mark.parametrize(
    "params, value",
    [
        (HypParams(1.0, -1.0, 3.0, 0.36), 0.88),
        (HypParams(3.0, -1.0, 5.0, 0.5), 0.7),
        (HypParams(2.0, -2.0, 5.0, 0.25), 0.8125),
        (HypParams(-1.0, -4.0, -2.0, 0.3), 0.4),
        (HypParams(-2.0, -5.0, -2.0, 0.1), 0.6),
    ],
)
def test_truncated_series_oracles(params, value):
    assert hyp2f1(params, 1e-15) == pytest.approx(value, abs=1e-15)


@given(
    st.floats(0.1, 3.0),
    st.floats(-2.9, 3.0),
    st.floats(1.0, 4.0),
    st.floats(-0.9, 0.9),
)
@settings(max_examples=60)
def test_hyp2f1_against_scipy(alpha, beta, gamma, z):
    ours = hyp2f1(HypParams(alpha, beta, gamma, z), 1e-15)
    ref = sps.hyp2f1(alpha, beta, gamma, z)
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


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


@pytest.mark.parametrize(
    "n, k, z, value",
    [
        (4, 2, 0.3, 0.4),
        (6, 1, 0.1, 0.6),
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
    assert g0_branch(dim) == "series"
    assert G_k(dim, 0, 0.5) == pytest.approx(0.75 + math.log(0.5), rel=1e-14)


def test_g0_branch_even_only():
    with pytest.raises(ValueError):
        g0_branch(Dimension(5))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 17])
def test_wronskian_identity(n, k):
    dim = Dimension(n)
    for z in (0.05, 0.37, 0.75, 0.95):
        bound = 1e-10 * (k + dim.rho)
        assert abs(wronskian_residual(dim, k, z)) < bound


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


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("z, g_rel", [(0.9025, 1e-12), (0.98, 1e-8)])
def test_radial_layer_against_mpmath(n, z, g_rel):
    # odd n, large k, z -> 1; G_k is a terminating sum with cancellation
    # that grows as z -> 1 (1.2e-9 relative at n=5, z=0.98)
    mpmath = pytest.importorskip("mpmath")
    dim = Dimension(n)
    ks = [0, 1, 7, 50, 200, 600, 1000]
    rho, half = mpmath.mpf(n - 2) / 2, mpmath.mpf(n) / 2
    with mpmath.workdps(60):
        for k, f, g in zip(ks, F_k(dim, np.array(ks), z), G_k(dim, np.array(ks), z)):
            f_ref = mpmath.hyp2f1(k, -rho, k + half, z)
            g_ref = mpmath.hyp2f1(-rho, 2 - k - n, 2 - k - half, z)
            assert abs((f - f_ref) / f_ref) < 1e-12
            assert abs((g - g_ref) / g_ref) < g_rel


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
    # v=0 convention: C_k^(0) = 2 T_k / k
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


def test_gegenbauer_ratio_at_one():
    # C_{k+1}(1)/C_k(1) = (k+n-2)/(k+1) at v = (n-2)/2
    for n in (4, 5, 6):
        v = (n - 2) / 2
        for k in range(6):
            ratio = gegenbauer_at_one(v, k + 1) / gegenbauer_at_one(v, k)
            assert ratio == pytest.approx((k + n - 2) / (k + 1), rel=1e-13)


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


def test_generating_function_log():
    # -log d identity at rho = 0: sum_{k>=1} t^k C_k^(0)(c)/2 = -log(sqrt(1-2tc+t^2))
    t, c = 0.5, 0.2
    seq = gegenbauer_sequence(0.0, 500, np.array(c))
    total = 0.5 * np.sum(seq[1:] * np.power(t, np.arange(1, 501)))
    assert total == pytest.approx(-0.5 * math.log(1 - 2 * t * c + t * t), abs=1e-12)
