"""Desk-scale experiments on sum and product sets of elliptic-curve orbit
x-coordinates over prime fields: exact group-law arithmetic, orbit tables,
additive character sums, and deterministic sweep tooling around them."""

from .curve import (
    INFINITY,
    AffinePoints,
    CurveParams,
    CurveSummary,
    curve_summary,
    enumerate_points,
    is_on_curve,
    point_add,
    point_order,
    scalar_mul,
)
from .charsum import (
    CharSumReport,
    SubgroupScanReport,
    bilinear_ratio_scan,
    bilinear_sum,
    bilinear_sum_bound,
    histogram_sums,
    solutions_spectrum,
    subgroup_scan,
    subgroup_sum,
    subgroup_sums,
)
from .errors import (
    CapExceeded,
    DomainError,
    EcsumprodError,
    IdentityHasNoX,
    InvariantViolation,
    NotAUnit,
    NotOnCurve,
    OrderMismatch,
    OrderNotDividing,
    TooLarge,
    TrivialCharacter,
)
from .extremal import (
    ExtremalReport,
    extremal_report,
    mobius_identity_residual,
    mobius_identity_residuals,
    units_with_x_below,
)
from .field import fp_sqrt, is_prime, legendre, validate_prime_modulus
from .orbit import OrbitTable, build_orbit, x_of
from .residue import divisors, euler_phi, factorize, mobius, units_of
from .rng import SplitMix64, derive_seed
from .sampling import discover_instance, max_order_point, random_curve, sample_unit_subset
from .sumprod import (
    SumProductReport,
    count_solutions,
    prod_set,
    product_index_set,
    sum_product_report,
    sum_set,
)
from .sweep import (
    ExperimentRecord,
    RECORD_FIELDS,
    SweepConfig,
    emit,
    load_config,
    parse_config,
    render_csv,
    render_json,
    run_sweep,
)
from .verify import CheckResult, run_identity_suite

__version__ = "0.1.0"
