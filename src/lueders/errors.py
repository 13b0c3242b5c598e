"""Typed exceptions shared across the package.

Every predictable failure mode raises one of these, so callers (and the CLI
exit-code mapping) can dispatch on the class name instead of parsing messages.
Each class is one of four kinds:

- a violation that `validate` names in its JSON, one of the classes in
  `VIOLATIONS`;
- a malformed file: ParseError;
- an argument outside its function's domain: InvalidArgument;
- a typed outcome: CommutesNoWitness, ResolutionExhausted,
  RefinementVanished, Undecided.
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


class CommutesNoWitness(LuedersError):
    """The operator commutes with the effect; no witness exists."""


class ResolutionExhausted(LuedersError):
    """The dyadic search hit its resolution cap without a separated pair."""


class RefinementVanished(LuedersError):
    """A typed outcome of `build_contractive_block`: expanding or refining the witness block lost it."""


class Undecided(LuedersError):
    """An eigenvalue of Φ beyond the target lies too close to 1 to count either way.

    It is within the residual bound or the rounding floor of 1, so the
    fixed-point count cannot be told from the target's dimension in floating
    point, and no verdict is given.  `joint_eigenspaces` raises it too, for a
    set that commutes to within COMMUTATOR but whose commutant frame still
    keeps a block on which the effects are not scalar.
    """


# The violations, which `validate` reports with exit code 1.
VIOLATIONS = (NotSquare, NotHermitian, SpectrumBelowZero, SpectrumAboveOne, NotSubnormalized, DimensionMismatch)


class ParseError(LuedersError):
    """A JSON document does not match the expected schema."""


class InvalidArgument(LuedersError):
    """An argument is outside its allowed range or its function's domain.

    Each argument is checked once, by the library function that first needs
    it (generator sizes, seeds, window resolutions, probe counts, ...); the
    CLI adds only its size caps.  Block norms past the double range raise it too.
    So do an effect set outside a function's domain (a non-resolution for
    `verify_resolution_fixed_points`, a resolution for
    `verify_subnormalized_fixed_points`, a non-commuting set for
    `joint_eigenspaces` and `build_contractive_block`) and a state that is
    not a density matrix for `is_undisturbed_state`.
    """
