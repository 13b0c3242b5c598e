"""Command line interface.

Subcommands: gen, validate, analyze, verify, witness, bound, nagy, suite.
Each command returns a report (a dict written as indented JSON; text for gen
and bound) and an exit code, and `main` writes it once: atomically to --out,
else to stdout.  Errors go to stderr.  This module alone shapes the JSON
bodies; the library's result types are plain data.  `analyze` reports the
fixed-point count of the `verify` decision.  Exit codes: 0 success (or
verdict true), 1 invariant violation or verdict false, 2 the typed
commutes-no-witness outcome, 3 usage or input errors, the typed Undecided
outcome of `verify` and `analyze`, and a LAPACK failure (LinAlgError)
anywhere, 4 unexpected errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from dataclasses import asdict

import numpy as np

from . import __version__, matkernel as mk, serialize, suite
from .effects import (
    Normalization,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
)
from .errors import VIOLATIONS, CommutesNoWitness, InvalidArgument, LuedersError
from .operation import (
    _commutant_frame,
    _verify_fixed_points,
    joint_eigenspaces,
    nagy_solve,
    verify_resolution_fixed_points,
    verify_subnormalized_fixed_points,
)
from .witness import contraction_bound, contraction_threshold, witness_search

__all__ = ["build_parser", "main"]

_FLAVORS = ("commuting-resolution", "commuting-subnormalized", "noncommuting-resolution")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the reserved
    # no-witness code; route usage errors to 3 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit(report: dict | str, out: str | None) -> None:
    text = report if isinstance(report, str) else json.dumps(report, indent=2)
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        serialize.write_text_atomic(out, text)


def _check_range(name: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise InvalidArgument(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def _classification(es) -> dict:
    return {
        "d": es.dim,
        "n": es.n,
        "commuting": es.commuting,
        "normalization": es.normalization.value,
        "max_pairwise_commutator_norm": es.max_pairwise_commutator_norm,
    }


def _cmd_gen(args):
    # The generators check sizes, seed and unit fraction; the CLI adds the file-format cap
    # and rejects --unit-fraction for the flavors that take none.
    if max(args.d, args.n) > serialize.DIM_LIMIT:
        raise InvalidArgument(f"d and n must be at most {serialize.DIM_LIMIT}, got {args.d} and {args.n}")
    if args.unit_fraction is not None and args.flavor != "commuting-subnormalized":
        raise InvalidArgument(f"--unit-fraction applies to commuting-subnormalized only, not {args.flavor}")
    meta = {"flavor": args.flavor, "seed": args.seed}
    if args.flavor == "commuting-resolution":
        es = generate_commuting_resolution(args.d, args.n, args.seed)
    elif args.flavor == "commuting-subnormalized":
        unit_fraction = 0.0 if args.unit_fraction is None else args.unit_fraction
        es = generate_commuting_subnormalized(args.d, args.n, args.seed, unit_fraction)
        meta["unit_fraction"] = unit_fraction
    else:
        es = generate_noncommuting_resolution(args.d, args.n, args.seed)
    return serialize.effect_set_to_json(es, meta), 0


def _cmd_validate(args):
    try:
        es = serialize.load_effect_set(args.input)
    except VIOLATIONS as exc:
        return {"valid": False, "violation": type(exc).__name__, "detail": str(exc)}, 1
    return {
        "valid": True,
        **_classification(es),
        "effect_spectra": [[float(e.eigenvalues[0]), float(e.eigenvalues[-1])] for e in es.effects],
        "sum_of_squares": {
            "frobenius_distance_to_identity": float(np.linalg.norm(es.sum_of_squares - np.eye(es.dim))),
            "max_eigenvalue": float(es.sum_of_squares_eigenvalues[-1]),
        },
    }, 0


def _cmd_analyze(args):
    es = serialize.load_effect_set(args.input)
    frame = _commutant_frame(es)
    report = {
        **_classification(es),
        "channel_norm": mk.operator_norm(es.sum_of_squares),
        "fixed_dim": _verify_fixed_points(es, frame).fixed_dim,
        "commutant_dim": frame.dim,
    }
    if es.commuting:
        report["joint_block_dims"] = [b.dim for b in joint_eigenspaces(es)]
    return report, 0


def _cmd_verify(args):
    es = serialize.load_effect_set(args.input)
    if es.normalization is Normalization.RESOLUTION:
        rep = verify_resolution_fixed_points(es)
    else:
        rep = verify_subnormalized_fixed_points(es)
    return asdict(rep), 0 if rep.verdict else 1


def _cmd_witness(args):
    es = serialize.load_effect_set(args.input)
    b = serialize.load_operator(args.operator)
    idx = _check_range("index", args.index, 1, es.n)
    try:
        cert = witness_search(es.effects[idx - 1], b)
    except CommutesNoWitness as exc:
        return {"result": "commutes-no-witness", "detail": str(exc)}, 2
    report = {"m": cert.m, "k": cert.k, "j": cert.j, "block_norm": cert.block_norm}
    if args.full:
        report["left_projector"] = serialize.matrix_to_lists(cert.left_projector)
        report["right_projector"] = serialize.matrix_to_lists(cert.right_projector)
    return report, 0


def _cmd_bound(args):
    n = _check_range("n", args.n, 1, 10**6)
    m = _check_range("m", args.m, 1, 10**6)
    lines = []
    if args.p is not None:
        # 2**53 is the largest p that converts to a double exactly.
        p = _check_range("p", args.p, 1, 2**53)
        lines.append(f"bound(n={n}, m={m}, p={p}) = {contraction_bound(n, m, p):.7f}")
    lines.append(f"p* = {contraction_threshold(n, m)}")
    return "\n".join(lines), 0


def _cmd_nagy(args):
    es = serialize.load_effect_set(args.input)
    sol = nagy_solve(es)
    report = {"d": es.dim, "residual": sol.residual,
              "half_identity_distance": sol.half_identity_distance, "is_effect": sol.is_effect}
    if args.full:
        report["solution"] = serialize.matrix_to_lists(sol.solution)
    return report, 0


def _cmd_suite(args):
    rep = suite.run_suite(suite.QUICK if args.quick else suite.FULL)
    report = {
        "scale": rep.scale,
        "criteria": [asdict(r) for r in rep.results],
        "all_passed": rep.all_passed,
    }
    return report, 0 if rep.all_passed else 1


@functools.cache  # `main` parses with it and never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lueders", description="Lüders operations: build, verify, witness.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    inp = argparse.ArgumentParser(add_help=False)
    inp.add_argument("input")
    with_input = [inp, out]

    p = sub.add_parser("gen", parents=[out], help="generate a seeded effect set", description="Generate a deterministic effect set and write it as JSON.")
    p.add_argument("--flavor", choices=_FLAVORS, required=True)
    p.add_argument("--d", type=int, required=True, help="Hilbert space dimension (1..64)")
    p.add_argument("--n", type=int, required=True, help="number of effects (1..64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit-fraction", type=float, default=None, dest="unit_fraction",
                   help="fraction of the basis kept at radius 1 (commuting-subnormalized only; default 0)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", parents=with_input, help="validate an effect-set file", description="Check the effect invariants and report the classification.")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", parents=with_input, help="summarize the structure of an effect set")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", parents=with_input, help="compare the fixed-point space against its predicted form")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", parents=with_input, help="search for a separated window pair an operator couples")
    p.add_argument("operator", help="JSON operator file to test")
    p.add_argument("--index", type=int, default=1, help="1-based effect index (default 1)")
    p.add_argument("--full", action="store_true", help="include projector matrices in the output")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("bound", parents=[out], help="evaluate the contraction bound and its positivity threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("nagy", parents=with_input, help="solve the complete-disturbance equation Φ(X) + X = I")
    p.add_argument("--full", action="store_true", help="include the solution matrix")
    p.set_defaults(func=_cmd_nagy)

    p = sub.add_parser("suite", parents=[out], help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="small pools, finishes in well under a minute")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        _emit(report, args.out)
        return code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (LuedersError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
