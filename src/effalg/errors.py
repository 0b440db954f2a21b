"""Exception types shared across the package."""


class EffalgError(Exception):
    """Base class for all errors raised by effalg."""


class ElementNotInCarrier(EffalgError):
    pass


class NotEnumerable(EffalgError):
    """Raised when a whole-carrier scan is requested on a lazy algebra."""


class SizeLimit(EffalgError):
    """Carrier (or table) would exceed the configured size cap."""


class DomainMismatch(EffalgError):
    """A function table does not match the algebra's carrier."""


class MalformedInput(EffalgError, ValueError):
    """A document, element address or state value has a missing key, a
    value of the wrong type, or a number that does not parse."""


class IncompleteBase(EffalgError):
    """A compression base lacks a projection that an operation needs: P is
    empty, or a projection asked for (such as p' for p in P) is not in P."""


class NoCover(EffalgError):
    """The set of projections above an element has no least member."""

    def __init__(self, element, message=None):
        self.element = element
        super().__init__(message or f"no projection cover for element {element!r}")


class BPropertyMissing(EffalgError):
    """An element has no Boolean commutation certificate."""


class NotCommuting(EffalgError):
    """Operation requires a commuting pair (bicommutants pairwise compatible)."""


class ComparabilityMissing(EffalgError):
    """No projection separates the pair as required."""


class NotSpectral(EffalgError):
    """The compression base lacks projection covers or comparability."""


class Unstable(EffalgError):
    """A rational resolution is not decided at this depth: its meet changed
    between the last two depths, or (when ``lam`` is given) the resolution
    jumps inside the depth-n grid cell around lambda."""

    def __init__(self, depth, lam=None):
        self.depth = depth
        if lam is None:
            super().__init__(f"meet still changing at depth {depth}; increase depth")
        else:
            super().__init__(f"resolution jumps inside the depth-{depth} cell around "
                             f"{lam}; increase depth")


class InvalidState(EffalgError):
    """A claimed state is not additive, not unital, or out of range."""


class NotFaithful(InvalidState):
    """A state (or morphism) annihilates a nonzero element."""


class ScaleMismatch(EffalgError):
    """A scalar multiple does not land on a carrier element."""


class GridTooNarrow(EffalgError):
    """Approximation grid does not bracket the element."""


class InternalConsistencyError(EffalgError):
    """A value that must be independent of arbitrary choices was not."""


class InvalidDepth(EffalgError):
    """A resolution depth is negative or not an integer, or too deep to list."""
