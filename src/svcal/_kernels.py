"""Characteristic-function kernels.

One vectorized numpy implementation of every kernel; the Heston and
Schobel-Zhu kernels also have a variant that returns the CF's parameter
gradient in the same pass.
All kernels evaluate E[exp(i*u*ln(F_T/F_0))] under the forward measure
(zero drift) on arrays of complex frequencies ``u``, with the expiry ``T``
an array broadcast against ``u`` (one entry per frequency).  The
Heston-family coefficients use the trap-free branch of the complex square
root together with the algebraic identity (b - d) = -sigma^2*s/(b + d),
which keeps the formulas stable as sigma -> 0 without catastrophic
cancellation; sigma = 0 itself takes the closed form of the linear equation.
The Schobel-Zhu terms that cancel as d*T -> 0 come from their series in d*T.
"""

from __future__ import annotations

import math

import numpy as np

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
    """log(1+z) for complex arrays, accurate for small |z|.

    With z = x + iy, the real part log|1+z| is log1p(x(2+x) + y^2)/2 where
    that has full relative precision (x >= -1/4 and |1+z|^2 <= 2), else
    log(hypot(1+x, y)), which cannot overflow; the imaginary part is
    atan2(y, 1+x).  Both forms are computed everywhere: no masked branch.
    """
    z = np.asarray(z)
    x, y = z.real, z.imag
    out = np.empty(z.shape, dtype=np.complex128)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r2m1 = x * (2.0 + x) + y * y  # |1+z|^2 - 1
        near = (x >= -0.25) & (r2m1 <= 1.0)
        out.real = np.where(near, 0.5 * np.log1p(r2m1), np.log(np.hypot(1.0 + x, y)))
    out.imag = np.arctan2(y, 1.0 + x)
    return out


def _decay_terms(kappa, T):
    """(E, e1, T - e1, e1 - T*E) with E = exp(-kappa*T) and e1 = (1 - E)/kappa,
    elementwise over ``T``.

    The last two cancel in closed form as x = kappa*T -> 0.  Below x = 0.1,
    T - e1 comes from its series in x, e1 = T - (T - e1), and
    e1 - T*E = T*(1 - E) - (T - e1), which loses at most a bit there; so all
    four are exact down to kappa = 0.
    """
    x = np.asarray(kappa * T, dtype=float)
    E, omE = np.exp(-x), -np.expm1(-x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = omE / kappa
    tme1, e1mTE = T - e1, e1 - T * E
    small = x < 0.1
    if small.any():
        # T - e1 = T * (x/2 - x^2/6 + x^3/24 - ...)
        ser = np.zeros_like(x)
        for n in range(10, 0, -1):
            ser = ser * -x + 1.0 / math.factorial(n + 1)
        tme1 = np.where(small, T * x * ser, tme1)
        e1 = np.where(small, T - tme1, e1)
        e1mTE = np.where(small, T * omE - tme1, e1mTE)
    return E, e1, tme1, e1mTE


def _heston_seg(u, A, D, theta, kappa, sigma, rho, tau):
    """Propagate the Heston affine coefficients (A, D) across one segment.

    Solves, over a segment of length ``tau`` with constant parameters and
    initial condition ``(A, D)``:

        D' = sigma^2/2 * D^2 - (kappa - i*rho*sigma*u) * D - s/2
        A' = kappa*theta*D,           s = u^2 + i*u.

    At sigma = 0 the equation is linear: with E = exp(-kappa*tau) and
    e1 = (1 - E)/kappa from :func:`_decay_terms`, D -> D*E - (s/2)*e1 and A
    gains theta*(D*kappa*e1 - (s/2)*(tau - e1)), exact down to kappa = 0.
    """
    u = np.asarray(u, dtype=np.complex128)
    A = np.asarray(A, dtype=np.complex128)
    D = np.asarray(D, dtype=np.complex128)
    s = u * u + 1j * u
    sig2 = sigma * sigma
    if sig2 == 0.0:
        E, e1, tme1, _ = _decay_terms(kappa, tau)
        return A + theta * (D * (kappa * e1) - 0.5 * s * tme1), D * E - 0.5 * s * e1
    b = kappa - 1j * (rho * sigma) * u
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sqrt(b * b + sig2 * s)
        bpd = b + d
        bmd = -sig2 * s / bpd
        den = bpd - D * sig2
        gt = (bmd - D * sig2) / den
        E = np.exp(-d * tau)
        Dn = (-s * (1.0 - E) + D * (bpd * E - bmd)) / (den - E * (bmd - D * sig2))
        # _clog1p keeps full relative precision for small arguments, so the log
        # form serves every sigma > 0, however small or large the argument x
        x = gt * (1.0 - E) / (1.0 - gt)
        An = A + (kappa * theta / sig2) * (bmd * tau - 2.0 * _clog1p(x))
    # s == 0 (u in {0, -i}) keeps D = 0 segments inert
    inert = (s == 0) & (D == 0)
    if np.any(inert):
        An = np.where(inert, A, An)
        Dn = np.where(inert, D, Dn)
    return An, Dn


def heston_cf_vals(u, v0, theta, kappa, sigma, rho, T):
    """Heston CF: one segment of length ``T`` from zero coefficients."""
    A0 = np.zeros(np.shape(u), dtype=np.complex128)
    A, D = _heston_seg(u, A0, A0, theta, kappa, sigma, rho, T)
    return np.exp(A + D * v0)


def heston_cf_grad(u, v0, theta, kappa, sigma, rho, T):
    """Heston CF and its gradient in (v0, theta, kappa, sigma, rho), in one pass.

    Returns shape ``(6,) + u.shape``: phi, then dphi/dv0, dphi/dtheta,
    dphi/dkappa, dphi/dsigma and dphi/drho, from the intermediates of the
    trap-free form of :func:`heston_cf_vals`.  The exponent A + D*v0 has
    A = kappa*theta*a with a = beta*T - 2*chi*log(1+x)/x, where
    beta = (b - d)/sigma^2 and chi = x/sigma^2 stay finite as sigma -> 0.
    At sigma = 0 the exponent is -(s/2)*(theta*T + (v0 - theta)*e1(b)),
    e1(b) = (1 - exp(-b*T))/b, and every row is its closed form in the terms
    of :func:`_decay_terms`, exact down to kappa -> 0.  The exponent depends on
    kappa, sigma and rho only through b = kappa - i*rho*sigma*u and
    q = sigma^2; its partials in b (at fixed q) and in q (at fixed b)
    chain with db/dkappa = 1, db/dsigma = -i*rho*u, db/drho = -i*sigma*u
    and dq/dsigma = 2*sigma.  Rows with s = u^2 + i*u = 0 are phi = 1 with
    gradient 0.  Needs kappa + sigma > 0, which every calibration box keeps.

    The parameters may also be arrays broadcast against ``u``, one set per
    frequency (several independent fits in one pass): every operation is
    elementwise, so each frequency gets bit for bit what a scalar call with
    its own parameters gives.  Frequencies at sigma = 0 and at sigma > 0 then
    take their own branch, each on its own subset.
    """
    u = np.asarray(u, dtype=np.complex128)
    q = sigma * sigma
    zero = q == 0.0
    if np.ndim(zero) and zero.any() and not zero.all():
        out = np.empty((6,) + u.shape, dtype=np.complex128)
        for part in (zero, ~zero):
            args = (np.broadcast_to(a, u.shape)[part] for a in (v0, theta, kappa, sigma, rho, T))
            out[:, part] = heston_cf_grad(u[part], *args)
        return out
    s = u * u + 1j * u
    out = np.empty((6,) + u.shape, dtype=np.complex128)
    if np.all(zero):
        _, e1, tme1, e1mTE = _decay_terms(kappa, T)
        hs = 0.5 * s
        e_b = hs * ((v0 - theta) * e1mTE + theta * tme1) / kappa  # d exponent / db
        out[0] = np.exp(-hs * (theta * tme1 + v0 * e1))
        out[1] = -hs * e1
        out[2] = -hs * tme1
        out[3] = hs * (v0 - theta) * e1mTE / kappa  # theta*a + e_b
        out[4] = (-1j * rho) * u * e_b
        out[5] = 0.0
        out[1:] *= out[0]
        return out
    b = kappa - 1j * (rho * sigma) * u
    kt = kappa * theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sqrt(b * b + q * s)
        bpd = b + d
        r_bpd = 1.0 / bpd
        beta = -s * r_bpd
        gam = beta * r_bpd  # g/q, g = (b - d)/(b + d)
        r_omg = 1.0 / (1.0 - q * gam)
        E = np.exp(-d * T)
        omE = 1.0 - E
        chi = gam * omE * r_omg
        x = q * chi
        r_M = 1.0 / (bpd - (q * beta) * E)
        D = -s * omE * r_M
        log1px = _clog1p(x)
        a = beta * T - (2.0 / q) * log1px
        phi = np.exp(kt * a + D * v0)
        # d/dx of log(1+x)/x, by its series where |x| < 0.01
        r_1px = 1.0 / (1.0 + x)
        r_x = 1.0 / x
        dlog = (x * r_1px - log1px) * r_x * r_x
        small = np.abs(x) < 0.01
        if small.any():
            xs = x[small]
            ser = np.zeros_like(xs)
            for n in range(8, 0, -1):  # sum of (-1)^n n/(n+1) x^(n-1)
                ser = ser * xs + (-1) ** n * n / (n + 1.0)
            dlog[small] = ser
        # partials in b at fixed q (_b) and in q at fixed b (_q)
        r_d = 1.0 / d
        bpd_q = 0.5 * s * r_d
        TE = T * E
        E_b = -TE * b * r_d
        E_q = -TE * bpd_q
        beta_b = -beta * r_d
        beta_q = -beta * bpd_q * r_bpd
        gam_b = -2.0 * gam * r_d
        gam_q = 2.0 * beta_q * r_bpd
        chi_b = (gam_b * (omE + q * chi) - gam * E_b) * r_omg
        chi_q = (gam_q * (omE + q * chi) - gam * E_q + chi * gam) * r_omg
        D_b = (s * E_b - D * (bpd * r_d - q * (beta_b * E + beta * E_b))) * r_M
        D_q = (s * E_q - D * (bpd_q - beta * E - q * (beta_q * E + beta * E_q))) * r_M
        e_b = kt * (T * beta_b - 2.0 * chi_b * r_1px) + v0 * D_b
        e_q = kt * (T * beta_q - 2.0 * (chi_q * r_1px + chi * chi * dlog)) + v0 * D_q
        out[0] = phi
        np.multiply(phi, D, out=out[1])
        np.multiply(phi, kappa * a, out=out[2])
        np.multiply(phi, theta * a + e_b, out=out[3])
        np.multiply(phi, 2.0 * sigma * e_q - (1j * rho) * u * e_b, out=out[4])
        np.multiply(phi, (-1j * sigma) * u * e_b, out=out[5])
    inert = s == 0
    if inert.any():
        out[:, inert] = 0.0
        out[0, inert] = 1.0
    return out


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
    integrals reduce to elementary functions of E = exp(-d*T).  Row 0 of
    :func:`schobel_zhu_cf_grad`, computed without the gradient.
    """
    return _schobel_zhu(u, v0, theta, kappa, sigma, rho, T, grad=False)


def schobel_zhu_cf_grad(u, v0, theta, kappa, sigma, rho, T):
    """Schobel-Zhu CF and its gradient in (v0, theta, kappa, sigma, rho), in one pass.

    Returns shape ``(6,) + u.shape`` as :func:`heston_cf_grad` does.  The
    exponent of :func:`schobel_zhu_cf_vals` is A1 + k^2*A2 + k*B*v0 + C*v0^2/2
    with k = kappa*theta, where A1, A2, B and C depend on kappa, sigma and
    rho only through b = kappa - i*rho*sigma*u and q = sigma^2; their
    partials in b (at fixed q) and in q (at fixed b) chain as in
    :func:`heston_cf_grad`.  No term divides by q, so the gradient holds
    down to sigma = 0; below ``_SZ_DET_SIGMA`` row 0 is the
    deterministic-volatility CF.  Rows with s = u^2 + i*u = 0 are phi = 1
    with gradient 0.  Needs kappa + sigma > 0.
    """
    return _schobel_zhu(u, v0, theta, kappa, sigma, rho, T, grad=True)


# Below |d*T| = _SZ_SERIES_DT, _schobel_zhu takes its terms from the Taylor
# series in y = d*T of f1 = (1 - e^-y)/y, f2 = (1 - e^-2y)/y, p1 = h1/y^3 and
# p2 = h2/y^3, where h1 = 2y - 3 + 4e^-y - e^-2y and
# h2 = 2y*e^-2y - 4e^-y + 1 + 3e^-2y (2y*M - N = h1 - g*h2).  Rows 0-3 of
# _SZ_SERIES hold their coefficients of y^0 .. y^19, rows 4-7 those of their
# derivatives; the terms left out are below 1e-17 of each sum there.
_SZ_SERIES_DT = 0.5
_SZ_TAYLOR = [
    [(-1) ** m / math.factorial(m + 1) for m in range(21)],
    [(-1) ** m * 2 ** (m + 1) / math.factorial(m + 1) for m in range(21)],
    [(-1) ** (m + 1) * (4 - 2 ** (m + 3)) / math.factorial(m + 3) for m in range(21)],
    [(-1) ** (m + 1) * (-m * 2 ** (m + 3) - 4) / math.factorial(m + 3) for m in range(21)],
]
_SZ_SERIES = np.array([c[:20] for c in _SZ_TAYLOR] + [[(m + 1) * c[m + 1] for m in range(20)] for c in _SZ_TAYLOR])


def _sz_series(y):
    """(f1, f2, p1, p2) at ``y`` over their derivatives in y, shape (8,) + y.shape,
    by Horner's rule: elementwise, so each node gets the same bits in any array."""
    out = np.repeat(_SZ_SERIES[:, -1:], len(y), axis=1).astype(np.complex128)
    for c in _SZ_SERIES[:, -2::-1].T:
        out = out * y + c[:, None]
    return out


def _schobel_zhu(u, v0, theta, kappa, sigma, rho, T, grad):
    """The Schobel-Zhu CF, stacked over its gradient when ``grad``: one set of
    intermediates serves both, so the CF is the same with or without it."""
    u = np.asarray(u, dtype=np.complex128)
    s = u * u + 1j * u
    det = sigma < _SZ_DET_SIGMA
    if det:
        phi = np.exp(-0.5 * s * per_expiry(T, lambda t: _sz_integrated_var(v0, theta, kappa, t)))
        if not grad:
            return phi
    q = sigma * sigma
    b = kappa - 1j * (rho * sigma) * u
    k = kappa * theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sqrt(b * b + q * s)
        r_d = 1.0 / d
        bpd = b + d
        r_bpd = 1.0 / bpd
        beta = -s * r_bpd  # (b - d)/q
        gam = beta * r_bpd  # g/q, g = (b - d)/(b + d)
        g = q * gam
        r_omg = 1.0 / (1.0 - g)
        E = np.exp(-d * T)
        E2 = E * E
        omE = 1.0 - E
        omE2 = 1.0 - E2
        # as y = d*T -> 0, 1 - E^2 and T - R lose their digits, and B, C and their
        # partials are differences of terms of order 1/d: at those nodes they come
        # from the series of _sz_series, with C = -s*T*f2/D and B = -s*T^2*f1^2/D,
        # D = b*T*f2 + 1 + E^2, which hold no 1/d
        y = d * T
        small = np.abs(y) < _SZ_SERIES_DT
        series = small.any()
        if series:
            idx = np.nonzero(small)
            ys, Ts, gs, ss, bs = y[idx], np.broadcast_to(T, y.shape)[idx], g[idx], s[idx], b[idx]
            f1, f2, p1, p2, f1_y, f2_y, p1_y, p2_y = _sz_series(ys)
            omE2[idx] = ys * f2
            P = p1 - gs * p2
            Ds = bs * Ts * f2 + 1.0 + E2[idx]
        r_M = 1.0 / (1.0 - g * E2)
        x = g * omE2 * r_omg
        C = beta * omE2 * r_M
        B = beta * omE * omE * r_d * r_M
        N = g * (3.0 * E2 + 1.0) + (E2 + 3.0) - 4.0 * E * (1.0 + g)
        R = 0.5 * N * r_d * r_M
        A2 = -0.5 * s * r_d * r_d * (T - R)
        if series:
            # T - R = T^3 d^2 P/(2M), so A2 = -(s*T^3/4)*P/M
            sT3, r_Ms = -0.25 * ss * Ts**3, r_M[idx]
            A2[idx] = sT3 * P * r_Ms
            C[idx] = -ss * Ts * f2 / Ds
            B[idx] = -ss * Ts * Ts * f1 * f1 / Ds
        if not det:
            A1 = 0.5 * (q * beta * T - _clog1p(x))
            phi = np.exp(A1 + (k * k) * A2 + (k * v0) * B + (0.5 * v0 * v0) * C)
        inert = s == 0
        if not grad:
            return np.where(inert, 1.0 + 0j, phi)
        r_1px = 1.0 / (1.0 + x)

        def partial(d_x, beta_x, g_x, qbT_x, b_x):
            """The exponent's partial, given those of d, beta, g, q*beta*T/2 and b."""
            E_x = -T * E * d_x
            E2_x = 2.0 * E * E_x
            M_x = -(g_x * E2 + g * E2_x)
            C_x = ((beta_x * omE2 - beta * E2_x) - C * M_x) * r_M
            dM = d_x * r_d + M_x * r_M  # d log(d*M)
            B_x = (beta_x * omE - 2.0 * beta * E_x) * omE * r_d * r_M - B * dM
            N_x = g_x * (3.0 * E2 + 1.0 - 4.0 * E) + (3.0 * g + 1.0) * E2_x - 4.0 * (1.0 + g) * E_x
            R_x = 0.5 * N_x * r_d * r_M - R * dM
            A2_x = 0.5 * s * r_d * r_d * R_x - 2.0 * A2 * d_x * r_d
            if series:
                # the partials of A2, C and B in their series forms, with y_x = T*d_x
                y_x = Ts * d_x[idx]
                D_x = Ts * (b_x * f2 + bs * f2_y * y_x) + E2_x[idx]
                C_x[idx] = -ss * Ts * (f2_y * y_x - f2 * D_x / Ds) / Ds
                B_x[idx] = -ss * Ts * Ts * f1 * (2.0 * f1_y * y_x - f1 * D_x / Ds) / Ds
                P_x = (p1_y - gs * p2_y) * y_x - g_x[idx] * p2
                A2_x[idx] = sT3 * (P_x - P * M_x[idx] * r_Ms) * r_Ms
            x_x = (g_x * (omE2 + x) - g * E2_x) * r_omg
            return (qbT_x - 0.5 * x_x * r_1px) + (k * k) * A2_x + (k * v0) * B_x + (0.5 * v0 * v0) * C_x

        # partials in b at fixed q (_b) and in q at fixed b (_q)
        d_q = 0.5 * s * r_d
        beta_b = -beta * r_d
        beta_q = -beta * d_q * r_bpd
        e_b = partial(b * r_d, beta_b, -2.0 * g * r_d, 0.5 * q * T * beta_b, 1.0)
        e_q = partial(d_q, beta_q, gam * (1.0 - 2.0 * q * d_q * r_bpd), 0.5 * T * (beta + q * beta_q), 0.0)
        lin = 2.0 * k * A2 + v0 * B  # d exponent / dk
        out = np.empty((6,) + u.shape, dtype=np.complex128)
        out[0] = phi
        np.multiply(phi, k * B + v0 * C, out=out[1])
        np.multiply(phi, kappa * lin, out=out[2])
        np.multiply(phi, theta * lin + e_b, out=out[3])
        np.multiply(phi, 2.0 * sigma * e_q - (1j * rho) * u * e_b, out=out[4])
        np.multiply(phi, (-1j * sigma) * u * e_b, out=out[5])
    if inert.any():
        out[:, inert] = 0.0
        out[0, inert] = 1.0
    return out
