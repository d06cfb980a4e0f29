"""Model parameter types, the calibrated-model table and affine characteristic functions.

Parameter containers are immutable and validate their admissibility bounds
on construction.  :data:`MODELS` maps each calibrated model kind (heston,
bates, schobel_zhu) to the parameter type it builds and the flat parameter
names of its ``as_dict``; :func:`model_spec` looks a kind up.  Characteristic
functions are of ln(F_T/F_0) under the forward measure (zero drift);
discounting and the forward level live in :class:`MarketSlice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Tuple, Union

import numpy as np

from . import _kernels
from .errors import DomainError

ArrayLike = Union[float, complex, np.ndarray]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except TypeError:
            finite = None
        if finite is None or isinstance(value, bool):
            raise DomainError(f"{name} must be a number, got {value!r}")
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class HestonParams:
    """Square-root variance model parameters.

    v0 and theta are variances (vol^2 units), kappa a mean-reversion speed
    in 1/years, sigma the vol-of-variance, rho the spot/variance correlation.
    """

    v0: float
    theta: float
    kappa: float
    sigma: float
    rho: float

    def __post_init__(self):
        _require_finite(v0=self.v0, theta=self.theta, kappa=self.kappa, sigma=self.sigma, rho=self.rho)
        _require(self.v0 > 0, f"v0 must be > 0, got {self.v0}")
        _require(self.theta > 0, f"theta must be > 0, got {self.theta}")
        _require(self.kappa >= 0, f"kappa must be >= 0, got {self.kappa}")
        _require(self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}")
        _require(-1 < self.rho < 1, f"rho must lie in (-1, 1), got {self.rho}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class BatesParams:
    """Heston dynamics plus lognormal jumps of annual frequency jump_intensity.

    mean_jump is the expected fractional jump size k-bar; jump_vol the
    standard deviation of ln(1 + jump).
    """

    heston: HestonParams
    jump_intensity: float
    mean_jump: float
    jump_vol: float

    def __post_init__(self):
        _require_finite(jump_intensity=self.jump_intensity, mean_jump=self.mean_jump, jump_vol=self.jump_vol)
        _require(self.jump_intensity >= 0, f"jump_intensity must be >= 0, got {self.jump_intensity}")
        _require(self.jump_vol >= 0, f"jump_vol must be >= 0, got {self.jump_vol}")
        _require(self.mean_jump > -1, f"mean_jump must be > -1, got {self.mean_jump}")

    def as_dict(self) -> dict:
        out = self.heston.as_dict()
        out.update(
            jump_intensity=self.jump_intensity,
            mean_jump=self.mean_jump,
            jump_vol=self.jump_vol,
        )
        return out


@dataclass(frozen=True)
class SchobelZhuParams:
    """Ornstein-Uhlenbeck volatility model parameters (vol units, not variance)."""

    v0: float
    theta: float
    kappa: float
    sigma: float
    rho: float

    def __post_init__(self):
        _require_finite(v0=self.v0, theta=self.theta, kappa=self.kappa, sigma=self.sigma, rho=self.rho)
        _require(self.v0 > 0, f"v0 must be > 0, got {self.v0}")
        _require(self.theta >= 0, f"theta must be >= 0, got {self.theta}")
        _require(self.kappa >= 0, f"kappa must be >= 0, got {self.kappa}")
        _require(self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}")
        _require(-1 < self.rho < 1, f"rho must lie in (-1, 1), got {self.rho}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ModelSpec:
    """A calibrated model: its kind, the parameter type it builds and the
    names of that type's ``as_dict``, in order."""

    kind: str
    params_type: type
    names: Tuple[str, ...]

    def build(self, vals: Mapping[str, float]) -> "AffineParams":
        """Parameters from a mapping holding exactly ``names``; :class:`DomainError` for
        anything else, naming any missing or unexpected key or a value that is not a
        finite number or breaks a bound."""
        if not isinstance(vals, Mapping):
            raise DomainError(f"{self.kind} parameters must be a mapping, got {vals!r}")
        missing = [n for n in self.names if n not in vals]
        unexpected = sorted(set(vals) - set(self.names))
        if missing or unexpected:
            raise DomainError(f"{self.kind} parameters: missing {missing}, unexpected {unexpected}")
        if self.params_type is BatesParams:
            heston = HestonParams(**{n: vals[n] for n in _HESTON_NAMES})
            return BatesParams(heston, **{n: vals[n] for n in self.names[len(_HESTON_NAMES):]})
        return self.params_type(**vals)


_HESTON_NAMES = tuple(f.name for f in fields(HestonParams))

MODELS: Mapping[str, ModelSpec] = {
    "heston": ModelSpec("heston", HestonParams, _HESTON_NAMES),
    "bates": ModelSpec("bates", BatesParams, _HESTON_NAMES + ("jump_intensity", "mean_jump", "jump_vol")),
    "schobel_zhu": ModelSpec("schobel_zhu", SchobelZhuParams, tuple(f.name for f in fields(SchobelZhuParams))),
}


def model_spec(kind: str) -> ModelSpec:
    """The :data:`MODELS` entry of ``kind``; :class:`DomainError` for any other value."""
    if isinstance(kind, str) and kind in MODELS:
        return MODELS[kind]
    raise DomainError(f"unknown model kind {kind!r}; choose from {sorted(MODELS)}")


@dataclass(frozen=True)
class PiecewiseHestonParams:
    """Heston with piecewise-constant (theta, kappa, sigma, rho) in time.

    ``breakpoints`` are the segment end times t_1 < ... < t_n; segment i
    covers (t_{i-1}, t_i] with t_0 = 0 and the last segment extending
    beyond t_n.
    """

    v0: float
    breakpoints: Tuple[float, ...]
    segments: Tuple[Tuple[float, float, float, float], ...]  # (theta, kappa, sigma, rho)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(t) for t in self.breakpoints))
        object.__setattr__(self, "segments", tuple(tuple(map(float, s)) for s in self.segments))
        _require_finite(v0=self.v0)
        _require(self.v0 > 0, f"v0 must be > 0, got {self.v0}")
        _require(len(self.segments) >= 1, "at least one segment required")
        _require(
            len(self.breakpoints) == len(self.segments),
            "breakpoints and segments must have equal length",
        )
        prev = 0.0
        for t in self.breakpoints:
            _require(prev < t < math.inf,
                     f"breakpoints must be finite, positive and strictly increasing, got {self.breakpoints}")
            prev = t
        for i, (theta, kappa, sigma, rho) in enumerate(self.segments):
            _require_finite(**{f"segment {i} theta": theta, f"segment {i} kappa": kappa,
                               f"segment {i} sigma": sigma, f"segment {i} rho": rho})
            _require(theta > 0, f"segment {i}: theta must be > 0, got {theta}")
            _require(kappa >= 0, f"segment {i}: kappa must be >= 0, got {kappa}")
            _require(sigma >= 0, f"segment {i}: sigma must be >= 0, got {sigma}")
            _require(-1 < rho < 1, f"segment {i}: rho must lie in (-1, 1), got {rho}")

    def as_dict(self) -> dict:
        return {
            "v0": self.v0,
            "breakpoints": list(self.breakpoints),
            "segments": [list(s) for s in self.segments],
        }


@dataclass(frozen=True)
class MarketSlice:
    """Forward, discount factor and year fraction for one expiry."""

    forward: float
    discount: float
    expiry: float

    def __post_init__(self):
        _require_finite(forward=self.forward, discount=self.discount, expiry=self.expiry)
        _require(self.forward > 0, f"forward must be > 0, got {self.forward}")
        _require(0 < self.discount <= 1, f"discount must lie in (0, 1], got {self.discount}")
        _require(self.expiry > 0, f"expiry must be > 0, got {self.expiry}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def feller_ratio(p: HestonParams) -> float:
    """2*kappa*theta / sigma^2; below 1 the variance can reach zero.

    sigma = 0 returns +inf (the condition holds trivially).
    """
    if p.sigma == 0.0:
        return math.inf
    return 2.0 * p.kappa * p.theta / (p.sigma * p.sigma)


def expected_mean_variance(p: HestonParams, T: float) -> float:
    """Mean variance over [0, T]: theta + (v0 - theta)(1 - e^{-kappa T})/(kappa T).

    Continuous at kappa = 0 where the limit is v0; expm1 keeps full relative
    precision however small kappa*T is.
    """
    _require(T > 0, f"T must be > 0, got {T}")
    x = p.kappa * T
    phi1 = -math.expm1(-x) / x if x > 0.0 else 1.0
    return p.theta + (p.v0 - p.theta) * phi1


def _as_u_array(u: ArrayLike, T: ArrayLike) -> tuple[np.ndarray, np.ndarray, bool]:
    """Frequencies as a 1-d+ complex array and ``T`` checked and broadcast against them.

    The flag says both were scalars.
    """
    if not np.all(np.greater(T, 0)):
        raise DomainError(f"T must be > 0, got {T}")
    arr, T_arr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(u, dtype=np.complex128)), np.asarray(T, dtype=float)
    )
    return arr, T_arr, np.ndim(u) == 0 and np.ndim(T) == 0


def cf_heston(u: ArrayLike, p: HestonParams, T: ArrayLike) -> ArrayLike:
    """Heston characteristic function of ln(F_T/F_0), trap-free branch.

    Accepts scalar or array ``u`` (complex allowed) and a scalar ``T`` or an
    array of expiries broadcast against ``u``; must stay finite for |u| up
    to the end of the pricer's integration range.
    """
    arr, T, scalar = _as_u_array(u, T)
    out = _kernels.heston_cf_vals(arr, p.v0, p.theta, p.kappa, p.sigma, p.rho, T)
    return out[0] if scalar else out


def _jump_exponent(u: np.ndarray, p: BatesParams, T: np.ndarray):
    """log of the compensated lognormal-jump factor and the jump CF phi_j at ``u``."""
    lam, kbar, delta = p.jump_intensity, p.mean_jump, p.jump_vol
    gamma = math.log1p(kbar) - 0.5 * delta * delta
    phi_j = np.exp(1j * u * gamma - 0.5 * u * u * delta * delta)
    return lam * T * (phi_j - 1.0) - 1j * u * (lam * kbar * T), phi_j


def cf_bates(u: ArrayLike, p: BatesParams, T: ArrayLike) -> ArrayLike:
    """Heston CF times the compensated lognormal-jump factor."""
    arr, T, scalar = _as_u_array(u, T)
    base = cf_heston(arr, p.heston, T)
    out = base if p.jump_intensity == 0.0 else base * np.exp(_jump_exponent(arr, p, T)[0])
    return out[0] if scalar else out


def cf_heston_grad(u: ArrayLike, p: HestonParams, T: ArrayLike) -> np.ndarray:
    """The Heston CF and its derivatives in v0, theta, kappa, sigma and rho.

    Shape ``(6,) + shape``, for array ``u`` and ``T`` as in :func:`cf_heston`:
    row 0 is the CF, rows 1-5 its derivatives in the order of
    ``p.as_dict()``.  One pass of :func:`_kernels.heston_cf_grad`; needs
    kappa + sigma > 0.
    """
    arr, T, _ = _as_u_array(u, T)
    _require(p.kappa + p.sigma > 0, "the Heston gradient needs kappa + sigma > 0")
    return _kernels.heston_cf_grad(arr, p.v0, p.theta, p.kappa, p.sigma, p.rho, T)


def cf_bates_grad(u: ArrayLike, p: BatesParams, T: ArrayLike) -> np.ndarray:
    """The Bates CF and its derivatives in the parameters of ``p.as_dict()``.

    Shape ``(9,) + shape``: the Heston rows of :func:`cf_heston_grad` times
    the jump factor J, then phi * dlog J / d(jump_intensity, mean_jump,
    jump_vol) in closed form.
    """
    arr, T, _ = _as_u_array(u, T)
    heston = cf_heston_grad(arr, p.heston, T)
    log_j, phi_j = _jump_exponent(arr, p, T)
    lam, kbar, delta = p.jump_intensity, p.mean_jump, p.jump_vol
    out = np.empty((9,) + arr.shape, dtype=np.complex128)
    np.multiply(heston, np.exp(log_j), out=out[:6])
    phi = out[0]
    iu = 1j * arr
    np.multiply(phi, T * (phi_j - 1.0 - iu * kbar), out=out[6])
    np.multiply(phi, lam * T * iu * (phi_j / (1.0 + kbar) - 1.0), out=out[7])
    np.multiply(phi, -lam * delta * T * (arr * arr + iu) * phi_j, out=out[8])
    return out


def cf_schobel_zhu(u: ArrayLike, p: SchobelZhuParams, T: ArrayLike) -> ArrayLike:
    """Schobel-Zhu characteristic function of ln(F_T/F_0); ``T`` as in :func:`cf_heston`."""
    arr, T, scalar = _as_u_array(u, T)
    out = _kernels.schobel_zhu_cf_vals(arr, p.v0, p.theta, p.kappa, p.sigma, p.rho, T)
    return out[0] if scalar else out


def cf_schobel_zhu_grad(u: ArrayLike, p: SchobelZhuParams, T: ArrayLike) -> np.ndarray:
    """The Schobel-Zhu CF and its derivatives in v0, theta, kappa, sigma and rho.

    Shape ``(6,) + shape`` as in :func:`cf_heston_grad`: one pass of
    :func:`_kernels.schobel_zhu_cf_grad`; needs kappa + sigma > 0.
    """
    arr, T, _ = _as_u_array(u, T)
    _require(p.kappa + p.sigma > 0, "the Schobel-Zhu gradient needs kappa + sigma > 0")
    return _kernels.schobel_zhu_cf_grad(arr, p.v0, p.theta, p.kappa, p.sigma, p.rho, T)


def _effective_segments(p: PiecewiseHestonParams, T: float):
    """Segment durations covering [0, T], chronological order.

    Segments past T are dropped, the one containing T is truncated, and the
    last segment extends when T exceeds the final breakpoint.
    """
    taus, thetas, kappas, sigmas, rhos = [], [], [], [], []
    start = 0.0
    n = len(p.segments)
    for i, (theta, kappa, sigma, rho) in enumerate(p.segments):
        end = p.breakpoints[i] if i < n - 1 else max(p.breakpoints[i], T)
        hi = min(end, T)
        if hi > start:
            taus.append(hi - start)
            thetas.append(theta)
            kappas.append(kappa)
            sigmas.append(sigma)
            rhos.append(rho)
        start = end
        if start >= T:
            break
    return (
        np.asarray(taus),
        np.asarray(thetas),
        np.asarray(kappas),
        np.asarray(sigmas),
        np.asarray(rhos),
    )


def cf_piecewise_heston(u: ArrayLike, p: PiecewiseHestonParams, T: ArrayLike) -> ArrayLike:
    """Piecewise-constant Heston CF by backward induction over segments.

    Each segment's terminal affine coefficients seed the previous segment;
    one segment reduces exactly to :func:`cf_heston`.  The segments depend
    on the expiry, so an array ``T`` makes one kernel call per distinct
    expiry.
    """
    arr, T, scalar = _as_u_array(u, T)
    out = np.empty(arr.shape, dtype=np.complex128)
    for t in np.unique(T):
        at = T == t
        out[at] = _kernels.piecewise_heston_cf_vals(arr[at], p.v0, *_effective_segments(p, float(t)))
    return out[0] if scalar else out


AffineParams = Union[HestonParams, BatesParams, SchobelZhuParams, PiecewiseHestonParams]


def cf_for(params: AffineParams):
    """Return the CF callable ``cf(u, T)`` matching the parameter type."""
    if isinstance(params, HestonParams):
        return lambda u, T: cf_heston(u, params, T)
    if isinstance(params, BatesParams):
        return lambda u, T: cf_bates(u, params, T)
    if isinstance(params, SchobelZhuParams):
        return lambda u, T: cf_schobel_zhu(u, params, T)
    if isinstance(params, PiecewiseHestonParams):
        return lambda u, T: cf_piecewise_heston(u, params, T)
    raise DomainError(f"no characteristic function for {type(params).__name__}")


def cf_grad_for(params: Union[AffineParams, Mapping[float, AffineParams]]):
    """``grad(u, T)``: the CF stacked over its derivatives in the parameters of
    ``params.as_dict()`` (:func:`cf_heston_grad`, :func:`cf_bates_grad`,
    :func:`cf_schobel_zhu_grad`).

    ``params`` may also map expiries to parameter sets, each frequency taking
    the set of its expiry, which must be a key: one distinct set gives its
    own gradient, and several Heston sets one kernel pass that gives bit for
    bit what one call per expiry would.  Piecewise Heston has no closed-form
    gradient, nor several sets of any other model: :class:`DomainError`.
    """
    if isinstance(params, Mapping):
        if len(set(params.values())) > 1:
            return _heston_grad_by_expiry(params)
        params = next(iter(params.values()), params)
    if isinstance(params, HestonParams):
        return lambda u, T: cf_heston_grad(u, params, T)
    if isinstance(params, BatesParams):
        return lambda u, T: cf_bates_grad(u, params, T)
    if isinstance(params, SchobelZhuParams):
        return lambda u, T: cf_schobel_zhu_grad(u, params, T)
    raise DomainError(f"no characteristic-function gradient for {type(params).__name__}")


def _heston_grad_by_expiry(params: Mapping[float, AffineParams]):
    """:func:`cf_grad_for` of several parameter sets: Heston ones, looked up per frequency by its expiry."""
    for p in params.values():
        _require(isinstance(p, HestonParams), f"several sets in one pass must be Heston, got {type(p).__name__}")
        _require(p.kappa + p.sigma > 0, "the Heston gradient needs kappa + sigma > 0")
    expiries = np.array(sorted(params))
    table = np.array([[params[t].v0, params[t].theta, params[t].kappa, params[t].sigma, params[t].rho]
                      for t in expiries]).T

    def grad(u, T):
        arr, T, _ = _as_u_array(u, T)
        return _kernels.heston_cf_grad(arr, *table[:, np.searchsorted(expiries, T)], T)

    return grad
