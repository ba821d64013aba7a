"""Semantic exception hierarchy.

Every error raised on a public code path derives from :class:`OTLabError`,
so callers (and the CLI) can catch one base class. Validation-style errors
also derive from ``ValueError`` for interoperability.
"""


class OTLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OTLabError, ValueError):
    """Shapes of cost / marginals / plans / potentials do not agree."""


class BadNumber(OTLabError, ValueError):
    """An input entry is not a number of the arithmetic mode (bad syntax,
    a zero denominator, a value beyond the float range); the message names
    the field and the cell."""


class NegativeMass(OTLabError, ValueError):
    """A marginal or plan entry is negative (or not a finite mass)."""


class MassNotOne(OTLabError, ValueError):
    """A marginal does not sum to one (exactly, or within float tolerance)."""


class MetricViolation(OTLabError, ValueError):
    """A metric matrix is not symmetric/zero-diagonal or fails a triangle."""


class InfiniteCostInBoundedMode(OTLabError, ValueError):
    """An infinite cost entry appeared where boundedness was required."""


class UnboundedTransform(OTLabError):
    """A c-transform is undefined: a whole column/row of the cost is +inf."""


class InfeasibleFiniteCost(OTLabError):
    """Every feasible transport plan puts mass on an infinite-cost cell."""


class InfeasibleInput(OTLabError, ValueError):
    """An input violates the operation's precondition."""


class InfeasibleArguments(OTLabError, ValueError):
    """Plan or potentials handed to a certificate check are infeasible."""


class InfeasiblePotentials(OTLabError, ValueError):
    """Potentials violate phi(x) + psi(y) <= c(x, y)."""


class BudgetExceeded(OTLabError):
    """The instance has more cells than the brute-force oracle allows
    (``OT_LAB_BUDGET``)."""


class NoFeasibleTreeDual(OTLabError):
    """No optimal tree yields feasible potentials (signals a solver bug)."""


class EnvelopeLawViolation(OTLabError):
    """A Lipschitz-envelope schedule broke the monotone chain
    c_n <= c_{n+1}, v_n <= v_{n+1} <= v (signals a solver bug, or float
    round-off beyond tolerance)."""


class MissingMetric(OTLabError, ValueError):
    """The operation needs metrics on both spaces but one is absent."""


class UnknownFixture(OTLabError, ValueError):
    """Fixture name not in the generator registry."""
