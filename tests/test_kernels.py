"""Kernel-level checks: every CF kernel matches an independent numerical
integration of its affine ODE system, including cf(0) = cf(-i) = 1."""

import numpy as np
import pytest
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
