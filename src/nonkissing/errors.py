"""Exception hierarchy shared by all modules."""


class NonKissingError(Exception):
    """Base class for all package errors."""


class ParseError(NonKissingError):
    """Malformed input (bad JSON shape, unknown fields, bad ids)."""


# quiver validation

class QuiverError(NonKissingError):
    pass


class DegreeViolation(QuiverError):
    """A vertex has more than two incoming or outgoing arrows."""


class NonComposableRelation(QuiverError):
    """A relation pairs arrows that do not compose."""


class GentleBranchViolation(QuiverError):
    """An arrow has two relation partners, or two relation-free partners, on one side."""


class NotComplete(QuiverError):
    """A vertex has total degree not 1 or 4 in a complete quiver, or cannot be completed."""


# walks

class WalkError(NonKissingError):
    pass


class NotReduced(WalkError):
    """A word contains a factor x x^-1 or x^-1 x."""


class RelationHit(WalkError):
    """A word contains a forbidden length-two factor (or its inverse)."""


class NotMaximal(WalkError):
    """A finite end of a word could still be extended."""


class NotCanonical(WalkError):
    """A walk's stored form is not directed canonical, so the kiss and
    countercurrent kernels cannot read it: a tail period lies in its body,
    say."""


class IncompleteUniverse(NonKissingError):
    """An operation needed the complete walk set but enumeration was truncated."""


# countercurrent order

class OrderError(NonKissingError):
    pass


class SameMarkedWalk(OrderError):
    pass


class KissingPair(OrderError):
    """The countercurrent order is undefined on kissing walks."""


class NotMarked(OrderError):
    """A marked walk has no letter of the compared arrow at its mark."""


# facets and flips

class FacetError(NonKissingError):
    pass


class NotBending(FacetError):
    pass


class NotMember(FacetError):
    pass


class NotMaximalFacet(FacetError):
    pass


class FlipCheckFailed(FacetError):
    """A flip result does not kiss the flipped walk or kisses a facet member,
    or the start facet of the flip BFS has a kissing pair."""


class FlipFailed(FacetError):
    """The exchange cannot be built: a partner arrow or split is missing or not unique."""


class BoundError(NonKissingError):
    """A size bound such as the maximum number of facets is below 1."""


# fan / polytope

class GeometryError(NonKissingError):
    pass


class NotClosed(GeometryError):
    """Fan or polytope construction requires a closed flip graph."""


class VHMismatch(GeometryError):
    """Vertex and halfspace descriptions of the polytope disagree."""


# surface

class SurfaceError(NonKissingError):
    pass


class NotCellular(SurfaceError):
    pass


class NotDual(SurfaceError):
    """A dissection face does not contain exactly one dual marked point."""


class MissingDualPoint(NotDual):
    pass


class MultipleDualPoints(NotDual):
    pass


class NotReducedCrossing(SurfaceError):
    """A crossing sequence immediately re-crosses the same edge backwards."""


class NoUniqueWalk(SurfaceError):
    """A crossing sequence reads as no walk, or as more than one."""


class DifferentSurface(SurfaceError):
    pass


class InconsistentEuler(SurfaceError):
    """Euler characteristic cross-check failed; the construction is buggy."""
