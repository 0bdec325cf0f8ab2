"""Exception hierarchy: bad inputs, misused tree surgery, broken guarantees."""


class RainbowTreesError(Exception):
    """Base class for every error raised by this package."""


class InputError(RainbowTreesError):
    """The caller supplied data that fails validation."""


class MissingPair(InputError):
    """An unordered vertex pair has no color in the supplied table."""


class ColorOutOfRange(InputError):
    """A color index falls outside [0, 2m-2]."""


class AdjacentClash(InputError):
    """Two edges meeting at one vertex carry the same color."""

    def __init__(self, vertex: int, color: int):
        super().__init__(f"two edges of color {color} meet at vertex {vertex}")
        self.vertex = vertex
        self.color = color


class SelfLoop(InputError):
    """An edge lookup named the same vertex twice."""


class NotAPermutation(InputError):
    """A relabeling argument is not a bijection of the expected size."""


class SchemaError(InputError):
    """A document is not UTF-8 JSON or violates the expected shape."""


class InstanceTooLarge(InputError):
    """An exhaustive-search request exceeds the configured vertex cap."""


class SwapError(RainbowTreesError):
    """A leaf exchange was not given two distinct root-adjacent leaves
    (NotPendant), or the assembled tree k repeats a color (ColorClash)."""

    trace = None  # raised out of build_forest: the trace recorded up to the failure


class NotPendant(SwapError):
    """A leaf exchange was not given two distinct root-adjacent leaves."""


class ColorClash(SwapError):
    """The assembled tree k repeats a color."""


class InternalInvariantError(RainbowTreesError):
    """A condition the construction guarantees to hold has failed.

    These errors indicate implementation bugs, never bad input; they are
    raised loudly and carry the construction trace recorded up to the
    failure in ``trace`` when build_forest raises them, else None.
    """

    trace = None


class EmptyCandidateSet(InternalInvariantError):
    """The admissibility filter left no choice for some tree revision."""


class CycleDetected(InternalInvariantError):
    """An edge replacement produced a cycle or a disconnected graph."""


class LeafSetExhausted(InternalInvariantError):
    """Fewer than two common leaves remain at the start of a round."""


class FValidationFailed(InternalInvariantError):
    """Root degrees or leaf floors do not match their guaranteed values."""
