"""Central tolerance configuration.

Every numerical decision in the package (Hermitian checks, rank cuts, cluster
gaps, commutation thresholds) reads from a single frozen record so that the
acceptance thresholds are pinned in one place.  Scale-relative tolerances say
so in their docstring; everything else is absolute.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "DEFAULT"]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by every module.

    hermitian       relative Frobenius asymmetry allowed before NotHermitian
    psd             absolute eigenvalue dust tolerated below 0 (clipped away)
    nullspace       relative singular-value cut for numerical kernels
    commutator      commutation threshold: relative to the largest effect norm
                    in build_effect_set and to ‖b‖ in witness_search; absolute
                    in is_undisturbed_state, which bounds ‖Φ(ρ) - ρ‖_F, each
                    ‖[ρ, Eᵢ]‖ and |tr ρ - 1| by it
    cluster         eigenvalue cluster gap and spectral-window edge snap
    resolution      Frobenius distance to the identity that still counts as a
                    resolution (generators land below 1e-10; subnormalized
                    sets sit at least 9e-2 away, so 1e-8 is unambiguous)
    subspace        projector Frobenius distance for subspace equality
    witness         block-norm threshold for witnesses, relative to the
                    operator under test
    """

    hermitian: float = 1e-10
    psd: float = 1e-10
    nullspace: float = 1e-10
    commutator: float = 1e-9
    cluster: float = 1e-9
    resolution: float = 1e-8
    subspace: float = 1e-8
    witness: float = 1e-9


DEFAULT = Tolerances()
