"""Exception hierarchy shared across the package."""


class GraphHeatError(Exception):
    """Base class for all errors raised by this library."""


class GraphSpecError(GraphHeatError):
    """Invalid input while constructing a weighted graph."""


class NonSymmetricWeight(GraphSpecError):
    """An edge was given twice with conflicting weights."""


class NonPositiveMeasure(GraphSpecError):
    """A vertex measure is zero, negative, or not finite."""


class SelfLoop(GraphSpecError):
    """An edge connects a vertex to itself."""


class DuplicateEdge(GraphSpecError):
    """The same undirected edge appears more than once."""


class DuplicateVertex(GraphSpecError):
    """The same vertex id appears more than once."""


class InvalidWeight(GraphSpecError):
    """An edge weight is negative, NaN, or infinite."""


class UnknownVertex(GraphHeatError):
    """A vertex id does not belong to the graph."""


class EmptySubset(GraphHeatError):
    """An operation requires a nonempty vertex subset."""


class FullSubset(GraphHeatError):
    """An operation requires a proper vertex subset."""


class NotACycle(GraphHeatError):
    """The base graph of a cyclic cover must be a cycle."""


class InvalidFold(GraphHeatError):
    """The fold count of a cyclic cover must be a positive integer."""


class EmptyFiberIntersection(GraphHeatError):
    """A fiber does not meet the requested set."""


class NegativeTime(GraphHeatError):
    """Semigroup times must be nonnegative."""


class EigensolveFailure(GraphHeatError):
    """The symmetric eigensolver failed or produced an invalid spectrum."""


class QuadratureNonConvergence(GraphHeatError):
    """Adaptive quadrature exhausted its refinement depth."""


class NotRelativelyDense(GraphHeatError):
    """The observation set has infinite covering radius."""


class TargetUnreachable(GraphHeatError):
    """No control supported on D can reach the requested final norm."""


class BisectionNonConvergence(GraphHeatError):
    """The multiplier search failed to meet its tolerance."""


class InvalidParams(GraphHeatError):
    """Invalid parameters for a graph family."""


class ParseError(GraphHeatError):
    """A scenario or data file could not be parsed."""


class ValidationError(GraphHeatError):
    """A parsed input failed semantic validation."""
