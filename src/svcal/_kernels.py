"""Characteristic-function kernels.

One vectorized numpy implementation of every kernel.  All kernels evaluate
E[exp(i*u*ln(F_T/F_0))] under the forward measure (zero drift) on arrays of
complex frequencies ``u``, with the expiry ``T`` an array broadcast against
``u`` (one entry per frequency).  The Heston-family coefficients use the
trap-free branch of the complex square root together with the algebraic
identity (b - d) = -sigma^2*s/(b + d), which keeps the formulas stable down
to sigma = 0 without catastrophic cancellation.
"""

from __future__ import annotations

import numpy as np

# Series switch for the log term of the Heston A coefficient: below this
# sigma^2 the log argument is O(sigma^2) and must be expanded to keep full
# relative precision after the division by sigma^2.
_SIG2_SERIES = 1e-8
# Below this vol-of-vol the Schobel-Zhu path degenerates to deterministic
# volatility (validated against ODE integration of the affine system).
_SZ_DET_SIGMA = 1e-8


def per_expiry(T, f):
    """``f(t)`` for each distinct expiry ``t``, scattered back to the shape of ``T``.

    Used where a closed form branches on the expiry, so each element sees
    exactly the scalar value.
    """
    distinct, where = np.unique(T, return_inverse=True)
    return np.array([f(float(t)) for t in distinct])[where].reshape(np.shape(T))


def _clog1p(z: np.ndarray) -> np.ndarray:
    """log(1+z) for complex arrays, accurate for small |z|."""
    z = np.asarray(z)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = zs * (1.0 - zs * (0.5 - zs * (1.0 / 3.0 - 0.25 * zs)))
    zb = z[~small]
    out[~small] = np.log(1.0 + zb)
    return out


def _heston_seg(u, A, D, theta, kappa, sigma, rho, tau):
    """Propagate the Heston affine coefficients (A, D) across one segment.

    Solves, over a segment of length ``tau`` with constant parameters and
    initial condition ``(A, D)``:

        D' = sigma^2/2 * D^2 - (kappa - i*rho*sigma*u) * D - s/2
        A' = kappa*theta*D,           s = u^2 + i*u.
    """
    u = np.asarray(u, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    D = np.asarray(D, dtype=np.complex128)
    s = u * u + 1j * u
    sig2 = sigma * sigma
    b = kappa - 1j * (rho * sigma) * u
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(b * b + sig2 * s)
        bpd = b + d
        bmd = -sig2 * s / bpd
        den = bpd - D * sig2
        gt = (bmd - D * sig2) / den
        E = np.exp(-d * tau)
        Dn = (-s * (1.0 - E) + D * (bpd * E - bmd)) / (den - E * (bmd - D * sig2))
        if sig2 > _SIG2_SERIES:
            x = gt * (1.0 - E) / (1.0 - gt)
            An = A + (kappa * theta / sig2) * (bmd * tau - 2.0 * _clog1p(x))
        else:
            y = (-s / bpd - D) / den
            xs = sig2 * y * (1.0 - E) / (1.0 - gt)
            ser = 1.0 - xs * (0.5 - xs * (1.0 / 3.0 - 0.25 * xs))
            An = A + kappa * theta * (-s * tau / bpd - 2.0 * y * (1.0 - E) / (1.0 - gt) * ser)
    # s == 0 (u in {0, -i}) keeps D = 0 segments inert; sigma = kappa = 0
    # degenerates to a drift-free linear ODE.
    inert = (s == 0) & (D == 0)
    if np.any(inert):
        An = np.where(inert, A, An)
        Dn = np.where(inert, D, Dn)
    degen = (bpd == 0) & ~inert
    if np.any(degen):
        Dn = np.where(degen, D - 0.5 * s * tau, Dn)
        An = np.where(degen, A, An)
    return An, Dn


def heston_cf_vals(u, v0, theta, kappa, sigma, rho, T):
    """Heston CF: one segment of length ``T`` from zero coefficients."""
    A0 = np.zeros(np.shape(u), dtype=np.complex128)
    A, D = _heston_seg(u, A0, A0, theta, kappa, sigma, rho, T)
    return np.exp(A + D * v0)


def piecewise_heston_cf_vals(u, v0, taus, thetas, kappas, sigmas, rhos):
    """Backward recursion over segments given in chronological order."""
    A = np.zeros(np.shape(u), dtype=np.complex128)
    D = np.zeros(np.shape(u), dtype=np.complex128)
    for j in range(len(taus) - 1, -1, -1):
        A, D = _heston_seg(u, A, D, thetas[j], kappas[j], sigmas[j], rhos[j], taus[j])
    return np.exp(A + D * v0)


def _sz_integrated_var(v0, theta, kappa, T):
    """Integral over [0, T] of the squared deterministic volatility path."""
    if kappa * T < 1e-10:
        return v0 * v0 * T
    e1 = -np.expm1(-kappa * T) / kappa
    e2 = -np.expm1(-2.0 * kappa * T) / (2.0 * kappa)
    return theta * theta * T + 2.0 * theta * (v0 - theta) * e1 + (v0 - theta) ** 2 * e2


def schobel_zhu_cf_vals(u, v0, theta, kappa, sigma, rho, T):
    """CF of the mean-reverting Ornstein-Uhlenbeck volatility model.

    Exponent A1 + A2 + B*v0 + C*v0^2/2 where C solves the Riccati equation
    C' = sigma^2 C^2 - 2 b C - s and B, A follow by quadrature; all
    integrals reduce to elementary functions of E = exp(-d*T).
    """
    u = np.asarray(u, dtype=np.complex128)
    s = u * u + 1j * u
    if sigma < _SZ_DET_SIGMA:
        return np.exp(-0.5 * s * per_expiry(T, lambda t: _sz_integrated_var(v0, theta, kappa, t)))
    sig2 = sigma * sigma
    b = kappa - 1j * (rho * sigma) * u
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(b * b + sig2 * s)
        bpd = b + d
        bmd = -sig2 * s / bpd
        g = bmd / bpd
        E = np.exp(-d * T)
        E2 = E * E
        one_m_gE2 = 1.0 - g * E2
        C = -s / bpd * (1.0 - E2) / one_m_gE2
        B = -kappa * theta * s * (1.0 - E) ** 2 / (d * bpd * one_m_gE2)
        A1 = 0.5 * (bmd * T - _clog1p(g * (1.0 - E2) / (1.0 - g)))
        A2 = -(kappa * theta) ** 2 * s / (2.0 * d * d) * (
            T - (g * (3.0 * E2 + 1.0) + (E2 + 3.0) - 4.0 * E * (1.0 + g)) / (2.0 * d * one_m_gE2)
        )
        out = np.exp(A1 + A2 + B * v0 + 0.5 * C * v0 * v0)
    zero = s == 0
    if np.any(zero):
        out = np.where(zero, 1.0 + 0j, out)
    return out
