"""Exception types shared across the package."""


class MorsepowError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MorsepowError):
    """Input text or JSON could not be parsed."""


class NotSquarefree(MorsepowError):
    """A generator has an exponent larger than one."""


class NotMinimalGenerating(MorsepowError):
    """One supplied generator divides another."""


class EmptyComplementFacet(MorsepowError):
    """Complementing would produce an empty facet (some facet is the whole vertex set)."""


class NotQuasiForest(MorsepowError):
    """Leaf peeling got stuck: no facet of the remaining complex is a leaf."""

    def __init__(self, message, remaining_facets=()):
        super().__init__(message)
        self.remaining_facets = tuple(remaining_facets)


class NotProjectiveDimensionOne(MorsepowError):
    """The ideal's complement facet complex is not a quasi-forest."""

    def __init__(self, message, remaining_facets=()):
        super().__init__(message)
        self.remaining_facets = tuple(remaining_facets)


class InvalidJointChoice(MorsepowError):
    """A user-supplied joint assignment violates the joint condition."""


class DuplicateGenerator(MorsepowError):
    """Two exponent vectors expanded to the same monomial (inconsistent input)."""


class LengthMismatch(MorsepowError):
    """Exponent vectors of different lengths were compared."""


class NotInSupport(MorsepowError):
    """A move was requested at a zero entry of an exponent vector."""


class EmptyFace(MorsepowError):
    """The empty face was passed where a nonempty face is required."""


class TooLarge(MorsepowError):
    """A brute-force enumeration would exceed the configured cap."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class VerificationFailed(MorsepowError):
    """An internal consistency check that must hold for valid inputs failed."""
