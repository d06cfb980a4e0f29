"""Kernel-level checks: every CF kernel matches an independent numerical
integration of its affine ODE system, including cf(0) = cf(-i) = 1; the
complex log1p matches exact decimal arithmetic; the Heston and Schobel-Zhu
gradients match central differences of the CF."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from svcal import _kernels

# u in {0, -i} has s = u^2 + i*u = 0: the ODE solution is identically zero
# there, so these two points check cf(0) = cf(-i) = 1
U_ODE = [0.0 + 0j, -1j, 0.7 + 0j, 11.0 + 0j, 63.0 - 0.5j, 180.0 - 0.5j]


def _heston_rhs(t, y, u, kappa, theta, sigma, rho):
    D = y[0] + 1j * y[1]
    s = u * u + 1j * u
    b = kappa - 1j * rho * sigma * u
    dD = 0.5 * sigma**2 * D * D - b * D - 0.5 * s
    dA = kappa * theta * D
    return [dD.real, dD.imag, dA.real, dA.imag]

def heston_cf_ode(u, v0, theta, kappa, sigma, rho, T):
    sol = solve_ivp(
        _heston_rhs, [0, T], [0.0] * 4, args=(u, kappa, theta, sigma, rho),
        rtol=3e-13, atol=1e-15, method="DOP853",
    )
    D = sol.y[0, -1] + 1j * sol.y[1, -1]
    A = sol.y[2, -1] + 1j * sol.y[3, -1]
    return np.exp(A + D * v0)


def _sz_rhs(t, y, u, kappa, theta, sigma, rho):
    C = y[0] + 1j * y[1]
    B = y[2] + 1j * y[3]
    s = u * u + 1j * u
    b = kappa - 1j * rho * sigma * u
    dC = sigma**2 * C * C - 2 * b * C - s
    dB = kappa * theta * C - b * B + sigma**2 * B * C
    dA = kappa * theta * B + 0.5 * sigma**2 * (B * B + C)
    return [dC.real, dC.imag, dB.real, dB.imag, dA.real, dA.imag]

def sz_cf_ode(u, v0, theta, kappa, sigma, rho, T):
    sol = solve_ivp(
        _sz_rhs, [0, T], [0.0] * 6, args=(u, kappa, theta, sigma, rho),
        rtol=3e-13, atol=1e-15, method="DOP853",
    )
    C = sol.y[0, -1] + 1j * sol.y[1, -1]
    B = sol.y[2, -1] + 1j * sol.y[3, -1]
    A = sol.y[4, -1] + 1j * sol.y[5, -1]
    return np.exp(A + B * v0 + 0.5 * C * v0 * v0)


PARAM_SETS = [
    (0.04, 0.04, 1.0, 0.5, -0.7, 1.0),
    (0.02, 0.05, 6.02, 0.49, -0.13, 0.25),
    (0.09, 0.03, 0.3, 1.2, 0.6, 5.0),
    (0.05, 0.2, 0.0, 0.8, -0.4, 2.0),  # kappa = 0
    (0.04, 0.09, 2.0, 1e-5, -0.6, 1.5),  # tiny vol-of-variance
    (0.04, 0.09, 2.0, 0.0, -0.6, 1.5),  # zero vol-of-variance
]


@pytest.mark.parametrize("v0,theta,kappa,sigma,rho,T", PARAM_SETS)
def test_heston_kernel_matches_ode(v0, theta, kappa, sigma, rho, T):
    got = _kernels.heston_cf_vals(np.array(U_ODE), v0, theta, kappa, sigma, rho, T)
    for u, g in zip(U_ODE, got):
        want = heston_cf_ode(u, v0, theta, kappa, sigma, rho, T)
        assert abs(g - want) <= 1e-9 * max(abs(want), 1e-300)


@pytest.mark.parametrize(
    "v0,theta,kappa,sigma,rho,T",
    [
        (0.2, 0.2, 1.3, 0.4, -0.4, 2.0),
        (0.15, 0.0, 2.5, 0.9, 0.5, 1.0),  # theta = 0
        (0.3, 0.25, 0.0, 0.3, -0.8, 0.5),  # kappa = 0
        (0.2, 0.18, 4.0, 1e-4, -0.3, 5.0),  # tiny sigma, general path
        (0.2, 0.18, 4.0, 0.0, -0.3, 5.0),  # zero sigma, deterministic-vol limit
    ],
)
def test_schobel_zhu_kernel_matches_ode(v0, theta, kappa, sigma, rho, T):
    got = _kernels.schobel_zhu_cf_vals(np.array(U_ODE), v0, theta, kappa, sigma, rho, T)
    for u, g in zip(U_ODE, got):
        want = sz_cf_ode(u, v0, theta, kappa, sigma, rho, T)
        assert abs(g - want) <= 1e-9 * max(abs(want), 1e-300)


def test_piecewise_kernel_matches_stepwise_ode():
    # two segments: integrate the ODE segment by segment in remaining time
    taus = np.array([1.0, 2.0])
    params = [(0.05, 1.0, 0.5, -0.5), (0.03, 2.0, 0.8, 0.2)]
    v0 = 0.04
    for u in [0.0 + 0j, -1j, 3.0 + 0j, 40.0 - 0.5j]:
        y = [0.0] * 4
        for theta, kappa, sigma, rho in reversed(params):
            idx = params.index((theta, kappa, sigma, rho))
            sol = solve_ivp(
                _heston_rhs, [0, taus[idx]], y, args=(u, kappa, theta, sigma, rho),
                rtol=3e-13, atol=1e-15, method="DOP853",
            )
            y = [sol.y[k, -1] for k in range(4)]
        want = np.exp((y[2] + 1j * y[3]) + (y[0] + 1j * y[1]) * v0)
        got = _kernels.piecewise_heston_cf_vals(
            np.array([u], dtype=complex), v0,
            taus, *(np.array(col) for col in zip(*params)),
        )[0]
        assert abs(got - want) / abs(want) < 1e-9


# kappa << sigma*|u|: the log argument of A is O(1) although sigma^2 is tiny
# (8.1e-9 and 4e-8)
_SMALL_KAPPA_SETS = [(0.04, 0.04, 1e-3, 9e-5, -0.7, 1.0), (0.04, 0.04, 1e-3, 2e-4, -0.7, 1.0)]
_U_SMALL_KAPPA = np.array([150.0 - 0.5j, 60.0 - 0.5j, 11.0 + 0j])


@pytest.mark.parametrize("v0,theta,kappa,sigma,rho,T", _SMALL_KAPPA_SETS)
def test_heston_kernels_match_ode_when_kappa_is_far_below_sigma_u(v0, theta, kappa, sigma, rho, T):
    Ts = np.full(_U_SMALL_KAPPA.shape, T)
    got = {
        "vals": _kernels.heston_cf_vals(_U_SMALL_KAPPA, v0, theta, kappa, sigma, rho, Ts),
        "grad": _kernels.heston_cf_grad(_U_SMALL_KAPPA, v0, theta, kappa, sigma, rho, Ts)[0],
        "piecewise": _kernels.piecewise_heston_cf_vals(
            _U_SMALL_KAPPA, v0, np.array([0.4 * T, 0.6 * T]), np.array([theta] * 2),
            np.array([kappa] * 2), np.array([sigma] * 2), np.array([rho] * 2)),
    }
    for i, u in enumerate(_U_SMALL_KAPPA):
        want = heston_cf_ode(u, v0, theta, kappa, sigma, rho, T)
        for kernel, vals in got.items():
            assert abs(vals[i] - want) <= 1e-10 * abs(want), (kernel, u)


def _log1p_reference(z: complex) -> complex:
    """log(1+z) from exact decimal arithmetic for the real part, log|1+z|^2/2.

    |1+z|^2 - 1 = 2x + x^2 + y^2 is exact at 60 digits; its log1p is taken by
    series below 1e-20.  The imaginary part atan2(y, 1+x) is well conditioned.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        x, y = Decimal(z.real), Decimal(z.imag)
        r = 2 * x + x * x + y * y
        re = r - r * r / 2 + r * r * r / 3 if abs(r) < Decimal("1e-20") else (1 + r).ln()
        return complex(float(re / 2), math.atan2(z.imag, 1.0 + z.real))


def test_clog1p_matches_a_decimal_reference_from_1e_minus_12_to_1e6():
    rng = np.random.default_rng(7)
    z = 10 ** rng.uniform(-12, 6, 3000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3000))
    edge = np.array([1e-3, -1e-3, 1e-3j, -1e-3 + 1e-3j, -0.25, -0.2499 + 0.3j, -0.5, -1 + 1e-10j,
                     -2.0, 1e-300 + 1e-300j, 1e200 + 1e200j, -1e6 + 0j])
    z = np.concatenate([z, edge])
    got = _kernels._clog1p(z)
    assert np.all(np.isfinite(got))
    want = np.array([_log1p_reference(complex(v)) for v in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15


# Heston gradient against five-point central differences of the CF; sigma
# tiny (3e-5 to 9e-5) or ordinary.  theta is kept away from v0 so that every
# derivative is large against the differences' noise.
_U_GRAD = np.concatenate([[0.0, -1j, -0.5j], np.linspace(0.05, 200.0, 40) - 0.5j, np.linspace(0.1, 30.0, 10)])
_grad_props = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _five_point(f, p, i, h):
    def at(dh):
        q = list(p)
        q[i] += dh
        return f(*q)

    return (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)


@st.composite
def _heston_grad_case(draw):
    v0 = draw(st.floats(0.01, 0.2))
    theta = v0 * draw(st.sampled_from([0.3, 2.5]))
    kappa = draw(st.floats(0.2, 8.0))
    series = draw(st.booleans())
    sigma = draw(st.floats(3e-5, 9e-5)) if series else draw(st.floats(0.05, 2.0))
    rho = draw(st.floats(-0.9, 0.9).filter(lambda r: abs(r) > 0.05))
    T = draw(st.floats(0.1, 3.0))
    return (v0, theta, kappa, sigma, rho), T


@_grad_props
@given(case=_heston_grad_case())
def test_heston_gradient_matches_central_differences(case):
    p, T = case
    Ts = np.full(_U_GRAD.shape, T)
    grad = _kernels.heston_cf_grad(_U_GRAD, *p, Ts)
    phi = _kernels.heston_cf_vals(_U_GRAD, *p, Ts)
    np.testing.assert_allclose(grad[0], phi, rtol=1e-12, atol=1e-300)  # exponents reach -400
    for i in range(5):
        h = 1e-2 * p[3] if i == 3 else 1e-4 * abs(p[i])
        want = _five_point(lambda *q: _kernels.heston_cf_vals(_U_GRAD, *q, Ts), p, i, h)
        noise = 1e-14 / h  # rounding of |phi| <= 1 in the differences
        assert np.max(np.abs(grad[i + 1] - want)) <= 1e-6 * np.max(np.abs(want)) + noise


@pytest.mark.parametrize("sigma", [0.0, 5e-5, 0.5])
def test_heston_gradient_of_the_probe_rows_s_zero_is_zero(sigma):
    # u = 0 and u = -i: phi = 1 for every parameter set, including kappa - rho*sigma < 0
    grad = _kernels.heston_cf_grad(np.array([0.0 + 0j, -1j]), 0.04, 0.09, 1e-4, sigma, 0.9, np.array([1.0, 1.0]))
    assert np.array_equal(grad[0], [1.0, 1.0])
    assert np.array_equal(grad[1:], np.zeros((5, 2)))


def test_heston_gradient_with_parameter_arrays_equals_one_scalar_call_per_set():
    # each set on its own expiry's frequencies and probes, one set at sigma = 0 and one just above it
    sets = [(0.02, 0.03, 6.0, 0.5, -0.3), (0.01, 0.01, 1.5, 0.0, -0.2), (0.04, 0.02, 0.5, 1e-7, 0.4),
            (0.3, 0.3, 0.1, 3.0, -0.9)]
    rng = np.random.default_rng(3)
    us = [np.concatenate([[0.0, -0.5j], rng.uniform(0.0, 300.0, 600) - 0.5j]) for _ in sets]
    Ts = [np.full(len(u), T) for u, T in zip(us, (0.1, 0.5, 1.0, 5.0))]
    want = np.concatenate([_kernels.heston_cf_grad(u, *p, T) for u, p, T in zip(us, sets, Ts)], axis=1)
    params = np.concatenate([np.repeat(np.array(p)[:, None], len(u), axis=1) for u, p in zip(us, sets)], axis=1)
    got = _kernels.heston_cf_grad(np.concatenate(us), *params, np.concatenate(Ts))
    assert np.array_equal(got, want)
    # and every set alone, the sigma = 0 one on its closed form
    for u, p, T in zip(us, sets, Ts):
        assert np.array_equal(_kernels.heston_cf_grad(u, *np.repeat(np.array(p)[:, None], len(u), axis=1), T),
                              _kernels.heston_cf_grad(u, *p, T))


@st.composite
def _sz_grad_case(draw):
    v0 = draw(st.floats(0.05, 0.4))
    theta = v0 * draw(st.sampled_from([0.3, 2.5]))
    kappa = draw(st.floats(0.2, 8.0))
    sigma = draw(st.one_of(st.floats(0.05, 1.5), st.floats(1e-6, 1e-4), st.just(0.0)))
    rho = draw(st.floats(-0.9, 0.9).filter(lambda r: abs(r) > 0.05))
    T = draw(st.floats(0.1, 3.0))
    return (v0, theta, kappa, sigma, rho), T


def _one_sided_five_point(f, p, i, h):
    def at(dh):
        q = list(p)
        q[i] += dh
        return f(*q)

    return (-25 * at(0.0) + 48 * at(h) - 36 * at(2 * h) + 16 * at(3 * h) - 3 * at(4 * h)) / (12 * h)


@_grad_props
@given(case=_sz_grad_case())
def test_schobel_zhu_gradient_matches_central_differences(case):
    # sigma = 0 is the deterministic-volatility branch: row 0 is that CF, and the
    # sigma row is checked one-sided since the CF is only defined for sigma >= 0
    p, T = case
    Ts = np.full(_U_GRAD.shape, T)
    grad = _kernels.schobel_zhu_cf_grad(_U_GRAD, *p, Ts)
    phi = _kernels.schobel_zhu_cf_vals(_U_GRAD, *p, Ts)
    np.testing.assert_allclose(grad[0], phi, rtol=1e-12, atol=1e-300)
    assert np.isfinite(grad).all()
    for i in range(5):
        if i == 3 and p[3] == 0.0:
            h = 1e-6
            want = _one_sided_five_point(lambda *q: _kernels.schobel_zhu_cf_vals(_U_GRAD, *q, Ts), p, i, h)
        else:
            h = 0.2 * p[3] if i == 3 and p[3] < 1e-3 else 1e-4 * abs(p[i])
            want = _five_point(lambda *q: _kernels.schobel_zhu_cf_vals(_U_GRAD, *q, Ts), p, i, h)
        noise = 1e-14 / h
        assert np.max(np.abs(grad[i + 1] - want)) <= 1e-6 * np.max(np.abs(want)) + noise


@pytest.mark.parametrize("sigma", [0.0, 5e-5, 0.5])
def test_schobel_zhu_gradient_of_the_probe_rows_s_zero_is_zero(sigma):
    grad = _kernels.schobel_zhu_cf_grad(np.array([0.0 + 0j, -1j]), 0.2, 0.3, 1e-4, sigma, 0.9, np.array([1.0, 1.0]))
    assert np.array_equal(grad[0], [1.0, 1.0])
    assert np.array_equal(grad[1:], np.zeros((5, 2)))


def _heston_sigma0_mp(u, T, v0, theta, kappa, sigma, rho):
    """The sigma = 0 Heston CF in mpmath: the linear equation D' = -b*D - s/2,
    A' = kappa*theta*D solved with b = kappa - i*rho*sigma*u, which is how sigma
    enters the CF to first order (the sigma^2 terms do not).  At sigma = 0 it is
    exp(-(s/2)*(theta*T + (v0 - theta)*e1)), e1 = (1 - exp(-kappa*T))/kappa."""
    import mpmath as mp

    s = u * u + 1j * u
    b = kappa - 1j * rho * sigma * u
    e1 = -mp.expm1(-b * T) / b
    return mp.exp(-0.5 * s * (kappa * theta * (T - e1) / b + v0 * e1))


_U_SIGMA0 = [0.4 + 0j, 3.0 - 0.5j, 25.0 - 0.5j, 60.0]


@st.composite
def _heston_sigma0_case(draw):
    v0 = draw(st.floats(0.005, 0.2))
    theta = draw(st.floats(0.005, 0.2))
    kappa = 10.0 ** draw(st.floats(-12.0, math.log10(30.0)))
    rho = draw(st.floats(-0.95, 0.95))
    T = draw(st.floats(1 / 365, 5.0))
    return v0, theta, kappa, rho, T


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_heston_sigma0_case())
@example(case=(0.04, 0.02, 1e-12, -0.5, 1 / 365))
@example(case=(0.04, 0.02, 1e-6, 0.3, 1 / 365))
@example(case=(0.04, 0.02, 30.0, -0.7, 5.0))
def test_heston_gradient_at_sigma_zero_matches_mpmath(case):
    import mpmath as mp

    v0, theta, kappa, rho, T = case
    u = np.array(_U_SIGMA0)
    got = _kernels.heston_cf_grad(u, v0, theta, kappa, 0.0, rho, np.full(u.shape, T))
    p = [v0, theta, kappa, 0.0, rho]
    with mp.workdps(50):
        for j, uj in enumerate(_U_SIGMA0):
            f = lambda *q: _heston_sigma0_mp(mp.mpc(uj), mp.mpf(T), *q)  # noqa: E731
            want = [f(*p)] + [mp.diff(f, p, tuple(int(k == i) for k in range(5))) for i in range(5)]
            # mp.diff's own error, about 1e-60 of phi, is the floor where a row is 0
            floor = 1e-40 * abs(complex(want[0]))
            for i, w in enumerate(want):
                w = complex(w)
                assert abs(got[i, j] - w) <= 1e-12 * abs(w) + floor, (i, uj)


def _schobel_zhu_sigma0_mp(u, T, v0, theta, kappa, sigma, rho):
    """The Schobel-Zhu CF in mpmath with its sigma^2 terms dropped: C' = -2b*C - s,
    B' = kappa*theta*C - b*B, A' = kappa*theta*B with b = kappa - i*rho*sigma*u,
    which is how sigma enters the CF to first order.  At sigma = 0 it is the
    deterministic-volatility CF."""
    import mpmath as mp

    s = u * u + 1j * u
    b = kappa - 1j * rho * sigma * u
    k = kappa * theta
    em1, em2 = mp.expm1(-b * T), mp.expm1(-2 * b * T)  # E - 1 and E^2 - 1
    C = s * em2 / (2 * b)
    B = -k * s * em1 * em1 / (2 * b * b)
    A = -k * k * s / (2 * b * b) * (T + 2 * em1 / b - em2 / (2 * b))
    return mp.exp(A + B * v0 + 0.5 * C * v0 * v0)


@pytest.mark.parametrize("kappa", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("T", [1 / 52, 1 / 365])
def test_schobel_zhu_gradient_at_sigma_zero_and_small_kappa_matches_mpmath(kappa, T):
    # kappa*T and sigma small: T - N/(2dM) in A2, 1 - E and the partials of B and C
    # cancel there unless taken from their series in d*T
    import mpmath as mp

    v0, theta, rho = 0.2, 0.15, -0.5
    u = np.array(_U_SIGMA0)
    got = _kernels.schobel_zhu_cf_grad(u, v0, theta, kappa, 0.0, rho, np.full(u.shape, T))
    p = [v0, theta, kappa, 0.0, rho]
    with mp.workdps(50):
        for j, uj in enumerate(_U_SIGMA0):
            f = lambda *q: _schobel_zhu_sigma0_mp(mp.mpc(uj), mp.mpf(T), *q)  # noqa: E731
            want = [f(*p)] + [mp.diff(f, p, tuple(int(k == i) for k in range(5))) for i in range(5)]
            floor = 1e-40 * abs(complex(want[0]))  # the rho row is 0 at sigma = 0
            for i, w in enumerate(want):
                w = complex(w)
                assert abs(got[i, j] - w) <= 1e-10 * abs(w) + floor, (i, uj)


def _schobel_zhu_mp(u, T, v0, theta, kappa, sigma, rho):
    """The closed-form Schobel-Zhu CF of the kernel's docstring in mpmath, whose
    working precision absorbs the cancellations as d*T -> 0."""
    import mpmath as mp

    s = u * u + 1j * u
    q = sigma * sigma
    b = kappa - 1j * rho * sigma * u
    k = kappa * theta
    d = mp.sqrt(b * b + q * s)
    beta = -s / (b + d)
    g = q * beta / (b + d)
    E = mp.exp(-d * T)
    M = 1 - g * E * E
    C = beta * (1 - E * E) / M
    B = beta * (1 - E) ** 2 / (d * M)
    N = g * (3 * E * E + 1) + (E * E + 3) - 4 * E * (1 + g)
    A2 = -s / (2 * d * d) * (T - N / (2 * d * M))
    A1 = 0.5 * (q * beta * T - mp.log(1 + g * (1 - E * E) / (1 - g)))
    return mp.exp(A1 + k * k * A2 + k * v0 * B + 0.5 * v0 * v0 * C)


@pytest.mark.parametrize("kappa,sigma", [(1e-6, 1e-6), (1e-6, 1e-3), (1e-2, 1e-6)])
def test_schobel_zhu_gradient_at_small_kappa_and_sigma_matches_mpmath(kappa, sigma):
    import mpmath as mp

    v0, theta, rho, T = 0.2, 0.15, -0.5, 1 / 52
    u = np.array(_U_SIGMA0)
    got = _kernels.schobel_zhu_cf_grad(u, v0, theta, kappa, sigma, rho, np.full(u.shape, T))
    p = [v0, theta, kappa, sigma, rho]
    with mp.workdps(80):
        for j, uj in enumerate(_U_SIGMA0):
            f = lambda *q: _schobel_zhu_mp(mp.mpc(uj), mp.mpf(T), *q)  # noqa: E731
            want = [f(*p)] + [mp.diff(f, p, tuple(int(k == i) for k in range(5))) for i in range(5)]
            for i, w in enumerate(want):
                w = complex(w)
                assert abs(got[i, j] - w) <= 1e-10 * abs(w), (i, uj)
