"""Command line interface.

Subcommands: gen, validate, analyze, verify, witness, bound, nagy, suite.
Input and output are JSON documents; --out writes atomically, stdout is the
default.  Exit codes: 0 success (or verdict true), 1 invariant violation or
verdict false, 2 the typed commutes-no-witness outcome, 3 usage or input
errors, 4 unexpected internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import numpy as np

from . import __version__, matkernel as mk, serialize, suite
from .effects import (
    Normalization,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
)
from .errors import (
    CommutesNoWitness,
    DimensionMismatch,
    InvalidArgument,
    LuedersError,
    NotHermitian,
    NotPositive,
    NotSquare,
    NotSubnormalized,
    SpectrumAboveOne,
    SpectrumBelowZero,
)
from .operation import (
    LuedersOperation,
    commutant,
    fixed_point_space,
    joint_eigenspaces,
    nagy_solve,
    verify_resolution_fixed_points,
    verify_subnormalized_fixed_points,
)
from .witness import contraction_bound, contraction_threshold, witness_search

__all__ = ["build_parser", "main"]

_FLAVORS = ("commuting-resolution", "commuting-subnormalized", "noncommuting-resolution")

# Validation failures that name the violated invariant with exit code 1.
_VALIDATION_ERRORS = (
    NotSquare,
    NotHermitian,
    NotPositive,
    SpectrumBelowZero,
    SpectrumAboveOne,
    NotSubnormalized,
    DimensionMismatch,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the reserved
    # no-witness code; route usage errors to 3 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        serialize.write_text_atomic(out, text if text.endswith("\n") else text + "\n")


def _check_range(name: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise InvalidArgument(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def _cmd_gen(args) -> int:
    # The generators check sizes, seed and unit fraction; the CLI adds only the file-format cap.
    if max(args.d, args.n) > serialize.DIM_LIMIT:
        raise InvalidArgument(f"d and n must be at most {serialize.DIM_LIMIT}, got {args.d} and {args.n}")
    meta = {"flavor": args.flavor, "seed": args.seed}
    if args.flavor == "commuting-resolution":
        es = generate_commuting_resolution(args.d, args.n, args.seed)
    elif args.flavor == "commuting-subnormalized":
        es = generate_commuting_subnormalized(args.d, args.n, args.seed, args.unit_fraction)
        meta["unit_fraction"] = args.unit_fraction
    else:
        es = generate_noncommuting_resolution(args.d, args.n, args.seed)
    _emit(serialize.effect_set_to_json(es, meta), args.out)
    return 0


def _cmd_validate(args) -> int:
    try:
        es = serialize.load_effect_set(args.input)
    except _VALIDATION_ERRORS as exc:
        _emit(
            json.dumps(
                {"valid": False, "violation": type(exc).__name__, "detail": str(exc)},
                indent=2,
            ),
            args.out,
        )
        return 1
    report = {
        "valid": True,
        "d": es.dim,
        "n": es.n,
        "commuting": es.commuting,
        "normalization": es.normalization.value,
        "max_pairwise_commutator_norm": es.max_pairwise_commutator_norm,
        "effect_spectra": [
            [float(e.eigenvalues[0]), float(e.eigenvalues[-1])] for e in es.effects
        ],
        "sum_of_squares": {
            "frobenius_distance_to_identity": float(
                np.linalg.norm(es.sum_of_squares - np.eye(es.dim))
            ),
            "max_eigenvalue": float(es.sum_of_squares_eigenvalues[-1]),
        },
    }
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_analyze(args) -> int:
    es = serialize.load_effect_set(args.input)
    op = LuedersOperation(es)
    report = {
        "d": es.dim,
        "n": es.n,
        "commuting": es.commuting,
        "normalization": es.normalization.value,
        "max_pairwise_commutator_norm": es.max_pairwise_commutator_norm,
        "channel_norm": mk.operator_norm(es.sum_of_squares),
        "fixed_dim": fixed_point_space(op).dim,
        "commutant_dim": commutant(es).dim,
    }
    if es.commuting:
        report["joint_block_dims"] = [b.dim for b in joint_eigenspaces(es)]
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_verify(args) -> int:
    es = serialize.load_effect_set(args.input)
    if es.normalization is Normalization.RESOLUTION:
        rep = verify_resolution_fixed_points(es)
    else:
        rep = verify_subnormalized_fixed_points(es)
    _emit(json.dumps(rep.to_dict(), indent=2), args.out)
    return 0 if rep.verdict else 1


def _cmd_witness(args) -> int:
    es = serialize.load_effect_set(args.input)
    b = serialize.load_operator(args.operator)
    idx = _check_range("index", args.index, 1, es.n)
    cert = witness_search(es.effects[idx - 1], b)
    _emit(json.dumps(cert.to_dict(full=args.full), indent=2), args.out)
    return 0


def _cmd_bound(args) -> int:
    n = _check_range("n", args.n, 1, 10**6)
    m = _check_range("m", args.m, 1, 10**6)
    lines = []
    if args.p is not None:
        # 2**53 is the largest p that converts to a double exactly.
        p = _check_range("p", args.p, 1, 2**53)
        lines.append(f"bound(n={n}, m={m}, p={p}) = {contraction_bound(n, m, p):.7f}")
    lines.append(f"p* = {contraction_threshold(n, m)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_nagy(args) -> int:
    es = serialize.load_effect_set(args.input)
    sol = nagy_solve(LuedersOperation(es))
    report = {"d": es.dim, **sol.to_dict()}
    if args.full:
        report["solution"] = serialize.matrix_to_lists(sol.solution)
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_suite(args) -> int:
    report = suite.run_suite(suite.QUICK if args.quick else suite.FULL)
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lueders", description="Lüders operations: build, verify, witness.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a seeded effect set", description="Generate a deterministic effect set and write it as JSON.")
    p.add_argument("--flavor", choices=_FLAVORS, required=True)
    p.add_argument("--d", type=int, required=True, help="Hilbert space dimension (1..64)")
    p.add_argument("--n", type=int, required=True, help="number of effects (1..64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit-fraction", type=float, default=0.0, dest="unit_fraction",
                   help="fraction of the basis kept at radius 1 (subnormalized flavor only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="validate an effect-set file", description="Check the effect invariants and report the classification.")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="summarize the structure of an effect set")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="compare the fixed-point space against its predicted form")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="search for a separated window pair an operator couples")
    p.add_argument("input")
    p.add_argument("operator", help="JSON operator file to test")
    p.add_argument("--index", type=int, default=1, help="1-based effect index (default 1)")
    p.add_argument("--full", action="store_true", help="include projector matrices in the output")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("bound", help="evaluate the contraction bound and its positivity threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("nagy", help="solve the complete-disturbance equation Φ(X) + X = I")
    p.add_argument("input")
    p.add_argument("--full", action="store_true", help="include the solution matrix")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_nagy)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="small pools, finishes in well under a minute")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommutesNoWitness as exc:
        sys.stdout.write(
            json.dumps({"result": "commutes-no-witness", "detail": str(exc)}, indent=2) + "\n"
        )
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except LuedersError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
