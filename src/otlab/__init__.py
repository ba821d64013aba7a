"""otlab — a finite-instance Kantorovich duality laboratory.

Solve the discrete transport problem exactly, construct dual potentials in
the canonical double-transform shape, and certify every duality identity:
zero gap, the marginal law, complementary slackness, c-cyclic monotonicity
of the support, transform bound boxes, and the Lipschitz-envelope value
chain. Rational arithmetic makes the certificates bit-true; a brute-force
vertex-enumeration oracle provides independent ground truth.
"""

from .certify import (
    DualityCertificate,
    build_certificate,
    certify_instance,
    check_cyclic_monotonicity,
    check_marginals,
    check_slackness,
    duality_gap,
)
from .core import (
    FLOAT,
    INF,
    RATIONAL,
    CostMatrix,
    DualPotentials,
    FiniteSpace,
    Instance,
    Marginal,
    TransportPlan,
    as_matrix,
    as_vector,
    convert_instance,
    dual_value,
    make_instance,
    plan_cost,
    product_plan,
)
from .ctransform import (
    OVER_X,
    OVER_Y,
    c_transform,
    cbar_transform,
    induced_pseudometric,
    is_c_concave,
    normalize_pair,
)
from .dual import extract_dual_from_basis, improve_dual, solve_dual
from .envelope import (
    EnvelopeLevel,
    EnvelopeSchedule,
    envelope_schedule,
    lipschitz_envelope,
    saturation_index,
)
from .errors import (
    BadNumber,
    BudgetExceeded,
    DimensionMismatch,
    EnvelopeLawViolation,
    InfeasibleArguments,
    InfeasibleFiniteCost,
    InfeasibleInput,
    InfeasiblePotentials,
    InfiniteCostInBoundedMode,
    MassNotOne,
    MetricViolation,
    MissingMetric,
    NegativeMass,
    NoFeasibleTreeDual,
    OTLabError,
    UnboundedTransform,
    UnknownFixture,
)
from .fixtures import generate_fixture
from .oracle import oracle_dual, oracle_primal
from .primal import OptimalPlanResult, SolveStats, northwest_corner, solve_primal
from .serialize import instance_from_dict, instance_to_dict, load_instance

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
