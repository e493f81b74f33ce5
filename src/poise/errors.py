"""Exception types shared across the package.

Solver errors split into three rough bands: bad input (parse/validation),
honest negative answers (infeasible, not found), and numerical breakdowns
that should never happen on sane input (no crossing, walk failed). The CLI
exits 2 on an InputError and 1 on every other PoiseError; exit 3 is a
certificate that failed its verifier.
"""


class PoiseError(Exception):
    """Base class for all package errors."""


class InputError(PoiseError):
    """Malformed or out-of-contract input."""


class ParseError(InputError):
    """File or literal could not be parsed."""


# --- 2D polygons -----------------------------------------------------------

class NonSimpleError(InputError):
    """Polygon boundary intersects itself."""


class DegenerateError(InputError):
    """Polygon has zero area or repeated consecutive vertices."""


class IndexOutOfRangeError(InputError, IndexError):
    """Boundary parameter refers to a nonexistent edge or s outside [0, 1]."""


class CenterOutsideError(InputError):
    """Antipodal center lies outside the polygon."""


class NoIntersectionError(PoiseError):
    """Reflected boundary produced no usable intersection (numerical)."""


# --- 2D balancing ----------------------------------------------------------

class InfeasibleError(PoiseError):
    """Weight set cannot be balanced (largest weight exceeds the rest)."""


class OriginOutsideError(InputError):
    """Balance target (or origin) lies outside the region."""


class NoCrossingError(PoiseError):
    """Migration traversal never met the boundary (numerical)."""


class IntegerOverflowError(InputError):
    """Partition values too large to sum within 64 bits."""


# --- 3D surfaces -----------------------------------------------------------

class OpenSurfaceError(InputError):
    """Face loops do not close up into a watertight oriented surface."""


class NonPlanarFaceError(InputError):
    """A face's vertices do not lie in a common plane."""


class DisconnectedError(InputError):
    """Surface has more than one connected component."""


class RayCastError(PoiseError):
    """No parity ray missed every edge and vertex within its bound (numerical)."""


class SubdivisionLimitError(PoiseError):
    """Frame-field subdivision exceeded the hard depth limit."""


class DegenerateSectionError(PoiseError):
    """Cutting plane only grazes edges or vertices."""


class NoLoopContainsOriginError(PoiseError):
    """No cross-section loop encloses the origin."""


class SearchExhaustedError(PoiseError):
    """Tripodal search ran out of grid refinements and fallbacks."""


class NotFoundError(PoiseError):
    """Exhaustive search finished without a verified placement."""


# --- d-dimensional polytopes ------------------------------------------------

class UnboundedError(InputError):
    """H-representation admits a recession direction."""


class EmptyInteriorError(InputError):
    """H-representation has no interior point."""


class EnumerationBudgetError(PoiseError):
    """Subset vertex enumeration would solve more systems than its budget."""


class WalkFailedError(PoiseError):
    """A pivot walk broke down (numerical)."""


class UnsupportedDimensionError(InputError):
    """Requested point count is not of the form 2^i * 3^j with j <= 1."""
