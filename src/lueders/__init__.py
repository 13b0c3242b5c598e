"""Lüders operations on finite-dimensional complex Hilbert spaces.

Build the operation Φ(B) = Σᵢ EᵢBEᵢ from a finite set of effects, compute its
fixed-point subspace and the commutant of the set, verify that the two agree
in the forms they provably take, and construct quantitative witnesses of
non-commutation with explicit norm-contraction bounds.
"""

from .errors import (
    CommutesNoWitness,
    DimensionMismatch,
    InvalidArgument,
    LuedersError,
    NotHermitian,
    NotSquare,
    NotSubnormalized,
    ParseError,
    RefinementVanished,
    ResolutionExhausted,
    SpectrumAboveOne,
    SpectrumBelowZero,
    Undecided,
)
from .matkernel import OperatorSubspace
from .effects import (
    Effect,
    EffectSet,
    Normalization,
    build_effect_set,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
    spectral_window,
    validate_effect,
)
from .operation import (
    ChannelNormCertificate,
    JointBlock,
    LuedersOperation,
    NagySolution,
    TheoremReport,
    channel_norm,
    commutant,
    fixed_point_space,
    is_undisturbed_state,
    joint_eigenspaces,
    nagy_solve,
    verify_resolution_fixed_points,
    verify_subnormalized_fixed_points,
)
from .witness import (
    ContractionReport,
    WitnessCertificate,
    build_contractive_block,
    contraction_bound,
    contraction_threshold,
    witness_search,
)
from .serialize import (
    dump_effect_set,
    dump_operator,
    effect_set_to_json,
    load_effect_set,
    load_operator,
    operator_to_json,
    parse_effect_set,
    parse_operator,
)

__version__ = "0.1.0"

__all__ = [
    "LuedersError",
    "NotSquare",
    "NotHermitian",
    "DimensionMismatch",
    "SpectrumBelowZero",
    "SpectrumAboveOne",
    "NotSubnormalized",
    "CommutesNoWitness",
    "ResolutionExhausted",
    "RefinementVanished",
    "ParseError",
    "InvalidArgument",
    "Undecided",
    "OperatorSubspace",
    "Effect",
    "EffectSet",
    "Normalization",
    "validate_effect",
    "build_effect_set",
    "spectral_window",
    "generate_commuting_resolution",
    "generate_commuting_subnormalized",
    "generate_noncommuting_resolution",
    "LuedersOperation",
    "TheoremReport",
    "JointBlock",
    "ChannelNormCertificate",
    "NagySolution",
    "fixed_point_space",
    "commutant",
    "joint_eigenspaces",
    "verify_resolution_fixed_points",
    "verify_subnormalized_fixed_points",
    "channel_norm",
    "nagy_solve",
    "is_undisturbed_state",
    "WitnessCertificate",
    "ContractionReport",
    "witness_search",
    "contraction_bound",
    "contraction_threshold",
    "build_contractive_block",
    "effect_set_to_json",
    "parse_effect_set",
    "load_effect_set",
    "dump_effect_set",
    "operator_to_json",
    "parse_operator",
    "load_operator",
    "dump_operator",
]
