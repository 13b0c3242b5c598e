"""Typed exceptions shared across the package.

Every predictable failure mode raises one of these, so callers (and the CLI
exit-code mapping) can dispatch on the class name instead of parsing messages.
"""


class LuedersError(Exception):
    """Base class for all package errors."""


class NotSquare(LuedersError):
    """A square matrix was required."""


class NotHermitian(LuedersError):
    """Asymmetry ``‖M - M†‖`` exceeds the Hermitian tolerance."""


class DimensionMismatch(LuedersError):
    """Operands live on Hilbert spaces of different dimension."""


class SpectrumBelowZero(LuedersError):
    """A candidate effect has an eigenvalue below 0."""


class SpectrumAboveOne(LuedersError):
    """A candidate effect has an eigenvalue above 1."""


class NotSubnormalized(LuedersError):
    """The sum of squared effects has an eigenvalue above 1."""


class NotCommuting(LuedersError):
    """The operation needs a pairwise-commuting effect set."""


class NotResolution(LuedersError):
    """The operation needs the squares to sum to the identity."""


class IsResolution(LuedersError):
    """The operation needs a strictly subnormalized effect set."""


class NotDensityMatrix(LuedersError):
    """The state is not Hermitian, positive, and trace one."""


class CommutesNoWitness(LuedersError):
    """The operator commutes with the effect; no witness exists."""


class ResolutionExhausted(LuedersError):
    """The dyadic search hit its resolution cap without a separated pair."""


class RefinementVanished(LuedersError):
    """Internal error: refining a nonzero block lost it entirely."""


class Undecided(LuedersError):
    """An eigenvalue of Φ beyond the target lies too close to 1 to count either way.

    It is within the residual bound or the rounding floor of 1, so the
    fixed-point count cannot be told from the target's dimension in floating
    point, and no verdict is given.
    """


class ParseError(LuedersError):
    """A JSON document does not match the expected schema."""


class InvalidArgument(LuedersError):
    """An argument is outside its allowed range.

    Each argument is checked once, by the library function that first needs
    it (generator sizes, seeds, window resolutions, probe counts, ...); the
    CLI adds only its size caps.  Block norms past the double range raise it too.
    """
