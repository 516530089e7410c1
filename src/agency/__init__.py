"""Analysis toolkit for hidden-action principal-agent contracts with
single-dimensional private cost types: allocation rules, contract revenue,
virtual-cost machinery, incentive-compatibility checking, and numerical
verification of linear-contract approximation guarantees.
"""

from .instance import (
    BestResponse,
    Instance,
    PaymentProfile,
    best_response,
    linear_payments,
    validate,
)
from .typedist import (
    AtomPresentError,
    DistributionError,
    IronedVirtualCost,
    TypeDistribution,
    UndefinedAtAtomError,
    ZeroCdfError,
    ZeroDensityError,
    exponential,
    from_spec,
    iron,
    ironed,
    mixture,
    piecewise,
    point_mass,
    rhr,
    to_spec,
    truncated_normal,
    uniform,
)
from .allocation import AllocationRule, envelope_rule, rule_from_payments, virtual_rule
from .metrics import (
    Metrics,
    best_linear,
    compute_metrics,
    linear_revenue,
    linear_revenue_quadrature,
    virtual_welfare,
    virtual_welfare_quadrature,
    welfare,
)
from .conditions import (
    ConditionReport,
    TheoremVerdict,
    THEOREMS,
    linear_bounded_params,
    rhr_bound_alpha_hat,
    slow_virtual_beta,
    slowly_increasing_beta,
    small_tail_eta,
    smoothed_point_mass,
    verify,
)
from .incentives import (
    AssumptionViolatedError,
    Certificate,
    CurvatureCheck,
    MenuContract,
    MenuIcReport,
    PreconditionError,
    best_contract,
    binary_action_optimal,
    binary_outcome_transform,
    certify_non_implementable_at,
    check_menu_ic,
    curvature_check,
    expected_payment_identity,
    linear_menu,
    menu_induced_pieces,
    menu_revenue,
    menu_size,
)
from .examples import CanonicalExample, ConstraintError, EXAMPLE_IDS, build, minimal_linear_alpha, non_monotone_audit

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
