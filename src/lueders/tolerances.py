"""The nine numerical thresholds, pinned as module constants.

These govern the library's numerical decisions: Hermitian checks, spectrum
dust, rank cuts, cluster gaps, the eigenvalue merge of `commutant`,
commutation thresholds, subspace equality, witness block norms and the
rounding floor of Φ's eigenvalues.  No function takes a tolerance argument.
Two kinds of bound live elsewhere: the spacing of generated spectra
(`effects.MIN_TUPLE_SEPARATION`), and the acceptance battery's pass bounds,
such as 1e-8 on the C1–C3 distances or 1e-9 and 1e-10 on C4, which each
criterion in `suite` states for itself.  Scale-relative thresholds say so
below; everything else is absolute.
"""

from __future__ import annotations

__all__ = [
    "CLUSTER",
    "COMMUTATOR",
    "ELEMENT_GAP",
    "HERMITIAN",
    "NULLSPACE",
    "PSD",
    "SPECTRUM_FLOOR",
    "SUBSPACE",
    "WITNESS",
]

# Relative Frobenius asymmetry allowed before NotHermitian.
HERMITIAN = 1e-10
# Absolute eigenvalue dust tolerated below 0 (clipped away).
PSD = 1e-10
# Relative singular-value cut for numerical kernels.
NULLSPACE = 1e-10
# Commutation threshold: relative to the largest effect norm in
# build_effect_set and to ‖b‖ in witness_search; absolute in
# is_undisturbed_state, which bounds ‖Φ(ρ) - ρ‖_F, each ‖[ρ, Eᵢ]‖ and
# |tr ρ - 1| by it.
COMMUTATOR = 1e-9
# Eigenvalue cluster gap and spectral-window edge snap.  It also decides
# which eigenvalues w of F = Σ Eᵢ² count as 1: a set is a resolution exactly
# when every |w - 1| ≤ CLUSTER, and the "3.2" target keeps the commutant
# elements X whose singular value under X ↦ (I - F)X is at most CLUSTER.
# Generated resolutions land near 1e-15; subnormalized sets sit at least
# 9e-2 away.
CLUSTER = 1e-9
# Eigenvalue gap of the random element H = Σ cᵢEᵢ, relative to ‖H‖, at or
# below which `commutant` merges neighbouring eigenvalues into one block.
# By Davis–Kahan, eigenvectors of blocks farther apart are accurate to about
# ε‖H‖/gap ≈ 2e-13, far below the NULLSPACE cut.  Merging more blocks only
# costs time, never correctness.  With CLUSTER (1e-9) here, eigenvalues
# 3e-9..3e-6·‖H‖ apart stay in separate blocks although their eigenvectors
# are accurate only to ε‖H‖/gap, and commutant elements are lost.
ELEMENT_GAP = 1e-3
# Rounding floor of the eigenvalues of Φ, as the multiple c in
# floor = c·N·ε·‖Φ‖, where N = d² is the order of the real symmetric matrix R
# of Φ in Hermitian coordinates and ε the float64 machine epsilon.  A
# backward-stable symmetric eigensolver (Householder tridiagonalization, then
# QR or divide and conquer) returns the exact eigenvalues of R + E with
# ‖E‖₂ ≤ p(N)·ε·‖R‖₂, p(N) a modest function of N that grows like N in the
# norm-wise bound (Wilkinson; Parlett, The Symmetric Eigenvalue Problem, 1980),
# and building R from the Eᵢ adds entry errors of a few ε·‖Φ‖.  By Weyl's
# inequality each computed eigenvalue then lies within c·N·ε·‖Φ‖ of an exact
# one; c = 64 is the margin over the constant of that bound.  An eigenvalue
# closer to 1 than this floor cannot be told from 1, so `verify` raises
# Undecided rather than count it either way.  The floor is 2.3e-13·‖Φ‖ at
# d = 4 and 5.8e-11·‖Φ‖ at d = 64.
# Most sets skip that eigensolver: one Cholesky of M = (1 - τ)I - R̃ + 2VVᵀ
# (`operation._certify`; order N ≤ d², V with k orthonormal columns, ‖F‖ for
# ‖Φ‖) certifies the count.  A Cholesky that completes in floating point gives
# UᵀU = A + ΔA, |ΔA| ≤ γ_{N+1}·|Uᵀ||U|, in any summation order (J. Demmel, LAPACK
# Working Note 14, 1989; N. J. Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., ch. 10), so ‖ΔA‖₂ ≤ γ_{N+1}/(1 - γ_{N+1})·tr A, with
# tr A ≤ N + 2k as 0 ⪯ R̃; forming M rounds by at most 2γ_k·k + 6ε·√N.  A
# Cholesky of M - σI, σ = 4·(N + 1)·ε·(N + 2k), covers both, so its success
# proves M ≻ 0 (S. M. Rump, "Verification of positive definiteness", BIT 46,
# 2006): σ = 1.5e-8 at d = 64, k = 1.  R̃ is built in the commutant's eigenframe
# u from Ẽᵢ = u†Eᵢu, within r = 4·d·ε·Σᵢ‖Eᵢ‖² ≤ 4·d²·ε·‖F‖ of the exact rotation
# of R (3.6e-12 at d = n = 64), a sixteenth of the floor (5.8e-11) or less; the
# certificate adds r to τ, so the count it proves is one of R itself.  The
# residual ρ is measured on the same Ẽᵢ, so it places k eigenvalues of R within
# ρ + r ≤ τ/3 + τ/16 < τ of 1, τ = max(3ρ, floor): the certificate and the
# ``eigvalsh`` of R both count those k, with one τ and the floor taken at ‖F‖.
# Where the frame's blocks drop at most δ ≤ τ, the cut moves to 1 - τ - r - δ, and M
# is factored only on blocks that are not free (`operation._certify_blocks`).
SPECTRUM_FLOOR = 64
# Projector Frobenius distance for subspace equality.
SUBSPACE = 1e-8
# Block-norm threshold for witnesses, relative to the operator under test.
WITNESS = 1e-9
