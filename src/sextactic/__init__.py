"""Exact invariants of plane projective curves.

Computes Hessian determinants, the degree 12d-27 excess-contact covariant,
osculating conics at rational points, per-branch conic contact weights, the
conic Wronskian of a rational parametrization, and the global counting
formulas tying these together.  All arithmetic is exact over the rationals.
"""

from .branch import (
    BranchParam,
    ValuationLadder,
    WeightReport,
    closed_form_ladder,
    cusp_contact_constraints,
    hyperosculating_conic_at_branch,
    valuation_ladder,
    weight2,
)
from .census import (
    CurveProfile,
    PointRecord,
    brill_segre_total,
    inflection_count,
    intersection_identities,
    predicted_hessian2_order,
    predicted_hessian_order,
    sextactic_count,
)
from .differential import (
    CovariantSet,
    HessianBundle,
    covariants,
    hessian,
    osculating_conic,
    second_hessian,
    second_hessian_at,
)
from .parse import (
    ParseError,
    parse_branch,
    parse_param,
    parse_point,
    parse_poly,
    parse_profile,
)
from .poly import (
    MPoly,
    PolyMatrix,
    exact_div,
    linear_factor_orders,
    squarefree_decomp,
)
from .rational import (
    RationalParam,
    WeierstrassScan,
    conic_wronskian,
    intersection_orders,
    local_branch_at,
    osculating_conic_family,
    pullback,
    weights_from_xi,
)
from .series import TruncSeries

__version__ = "0.1.0"

__all__ = [
    "BranchParam",
    "CovariantSet",
    "CurveProfile",
    "HessianBundle",
    "MPoly",
    "ParseError",
    "PointRecord",
    "PolyMatrix",
    "RationalParam",
    "TruncSeries",
    "ValuationLadder",
    "WeierstrassScan",
    "WeightReport",
    "brill_segre_total",
    "closed_form_ladder",
    "conic_wronskian",
    "covariants",
    "cusp_contact_constraints",
    "exact_div",
    "hessian",
    "hyperosculating_conic_at_branch",
    "inflection_count",
    "intersection_identities",
    "intersection_orders",
    "linear_factor_orders",
    "local_branch_at",
    "osculating_conic",
    "osculating_conic_family",
    "parse_branch",
    "parse_param",
    "parse_point",
    "parse_poly",
    "parse_profile",
    "predicted_hessian2_order",
    "predicted_hessian_order",
    "pullback",
    "second_hessian",
    "second_hessian_at",
    "sextactic_count",
    "squarefree_decomp",
    "valuation_ladder",
    "weight2",
    "weights_from_xi",
]
