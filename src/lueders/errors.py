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


class NoConvergence(LuedersError):
    """The eigensolver failed to converge."""


class NotPositive(LuedersError):
    """An eigenvalue sits below the negative-dust tolerance."""


class DimensionMismatch(LuedersError):
    """Operands live on Hilbert spaces of different dimension."""


class SpectrumBelowZero(LuedersError):
    """A candidate effect has an eigenvalue below 0."""


class SpectrumAboveOne(LuedersError):
    """A candidate effect has an eigenvalue above 1."""


class NotSubnormalized(LuedersError):
    """The sum of squared effects has an eigenvalue above 1."""


class InvalidInterval(LuedersError):
    """A spectral window (a, b] was requested with a >= b."""


class NotCommuting(LuedersError):
    """The operation needs a pairwise-commuting effect set."""


class NotResolution(LuedersError):
    """The operation needs the squares to sum to the identity."""


class IsResolution(LuedersError):
    """The operation needs a strictly subnormalized effect set."""


class SingularSystem(LuedersError):
    """The linear system is singular: the superoperator has an eigenvalue at -1."""


class NotDensityMatrix(LuedersError):
    """The state is not Hermitian, positive, and trace one."""


class CommutesNoWitness(LuedersError):
    """The operator commutes with the effect; no witness exists."""


class ResolutionExhausted(LuedersError):
    """The dyadic search hit its resolution cap without a separated pair."""


class RefinementVanished(LuedersError):
    """Internal error: refining a nonzero block lost it entirely."""


class ParseError(LuedersError):
    """A JSON document does not match the expected schema."""


class InvalidArgument(LuedersError):
    """A command-line argument is outside its allowed range."""
