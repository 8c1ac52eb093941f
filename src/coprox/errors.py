"""Exception types shared across the package."""


class CoproxError(Exception):
    """Base class for all library errors."""


class NotPrimitive(CoproxError):
    """Adjacency matrix has no entrywise-positive power within the Wielandt bound."""


class SymbolMismatch(CoproxError):
    """Bracket/rectangle requires the two points to share coordinate 0."""


class NotOnLocalLeaf(CoproxError):
    """Holonomy endpoints are not on the required local stable/unstable set."""


class NotOnGlobalLeaf(CoproxError):
    """No shift brings the endpoints onto a common local leaf."""


class NotHomoclinic(CoproxError):
    """Point is not a homoclinic point of the given fixed point."""


class EndpointMismatch(CoproxError):
    """Paths being connected do not meet at a common point."""


class NotFixedPoint(CoproxError):
    """Expected a fixed point of the shift."""


class NoFixedSymbol(CoproxError):
    """The subshift has no symbol a with T[a][a] = 1."""


class SingularMatrix(CoproxError):
    """Matrix determinant below the invertibility tolerance."""


class DegenerateTopSingularValue(CoproxError):
    """Top two singular values coincide; no canonical contraction hyperplane."""


class NotProximal(CoproxError):
    """Matrix has no unique simple eigenvalue of maximal modulus."""


class TurnCapExceeded(CoproxError):
    """Iterating the return map did not align the directions within the cap."""


class TransversalityFailed(CoproxError):
    """Retry budget exhausted while building a transversal path."""


class SynthesisFailed(CoproxError):
    """Periodic-orbit synthesis hit the excursion-length cap without certifying."""


class NotConstant(CoproxError):
    """Per-orbit top-exponent differences are not constant; carries a witness.

    Attributes:
        witness: pair of (word, difference) tuples exhibiting the spread.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InputFormatError(CoproxError):
    """Malformed cocycle/config file; message carries field diagnostics."""
