"""Stochastic-volatility calibration toolkit.

Affine characteristic functions (Heston, Bates, Schobel-Zhu, piecewise
Heston), FX smile conventions, a menu of calibration strategies, mixing
rules, variance-swap fair strikes, and an up-front/live parameter workflow.
"""

from .calibration import (
    CalibrationResult,
    CalibrationTarget,
    FixSet,
    OptimizerConfig,
    TargetPoint,
    TenorRules,
    VarswapFit,
    calibrate,
    calibrate_penalized,
    calibrate_tenor,
    calibrate_varswap,
    objective,
)
from .errors import (
    DomainError,
    NumericalError,
    QuadratureError,
    QuoteParseError,
    RecordNotFoundError,
)
from .fx_quotes import (
    Conventions,
    SmilePoint,
    TenorQuote,
    resolve_smile,
    smile_vols,
    strike_from_delta,
)
from .mixing import (
    MaxParams,
    MixingCurve,
    austing_effective_volvol,
    clark_markdown,
    mix_at,
    tataru_mix,
)
from .models import (
    BatesParams,
    HestonParams,
    MarketSlice,
    PiecewiseHestonParams,
    SchobelZhuParams,
    cf_bates,
    cf_heston,
    cf_piecewise_heston,
    cf_schobel_zhu,
    expected_mean_variance,
    feller_ratio,
)
from .pricing import (
    OptionSpec,
    QuadratureConfig,
    bs_implied_vol,
    bs_price,
    cf_vanilla_price,
    model_implied_vol,
    model_smile,
)
from .store import ParamRecord, ParamStore, live_calibrate
from .varswap import (
    ReplicationConfig,
    SmileFunction,
    implied_varswap_curve,
    replicate_varswap,
    varswap_from_heston,
)
from .workflows import RunConfig

__version__ = "0.1.0"

__all__ = [
    "BatesParams",
    "CalibrationResult",
    "CalibrationTarget",
    "Conventions",
    "DomainError",
    "FixSet",
    "HestonParams",
    "MarketSlice",
    "MaxParams",
    "MixingCurve",
    "NumericalError",
    "OptimizerConfig",
    "OptionSpec",
    "ParamRecord",
    "ParamStore",
    "PiecewiseHestonParams",
    "QuadratureConfig",
    "QuadratureError",
    "QuoteParseError",
    "RecordNotFoundError",
    "ReplicationConfig",
    "RunConfig",
    "SchobelZhuParams",
    "SmileFunction",
    "SmilePoint",
    "TargetPoint",
    "TenorQuote",
    "TenorRules",
    "VarswapFit",
    "austing_effective_volvol",
    "bs_implied_vol",
    "bs_price",
    "calibrate",
    "calibrate_penalized",
    "calibrate_tenor",
    "calibrate_varswap",
    "cf_bates",
    "cf_heston",
    "cf_piecewise_heston",
    "cf_schobel_zhu",
    "cf_vanilla_price",
    "clark_markdown",
    "expected_mean_variance",
    "feller_ratio",
    "implied_varswap_curve",
    "live_calibrate",
    "mix_at",
    "model_implied_vol",
    "model_smile",
    "objective",
    "replicate_varswap",
    "resolve_smile",
    "smile_vols",
    "strike_from_delta",
    "tataru_mix",
    "varswap_from_heston",
]
