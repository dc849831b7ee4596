"""Command line front end.

Commands:

* ``verify <file> (--vector NAME | --all-invariant) [--beta R] [--format F]``
* ``moduli <file> [--format F]``
* ``holonomy <file> [--beta R] [--format F]``
* ``paper-example [--beta R | --symbolic] [--format F]``

Exit codes: 0 success, 1 parse or I/O error, 2 semantic or precondition
failure.  A "not symplectic" verdict is a successful result, not a
failure.  The machine format is JSON with fixed keys; scalar values are
rendered in the exact literal grammar, never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analysis import AutomorphismReport, Geometry, infinitesimal_holonomy, verify_automorphism
from .catalog import example_identity_checks
from .errors import (
    ConventionFault,
    FrameCalcError,
    InconsistencyError,
    ParameterError,
    PreconditionError,
    ScalarParseError,
    SpecSemanticError,
    SpecSyntaxError,
    StabilizationError,
)
from .moduli import automorphism_space, symplectic_connection_space
from .specfile import load_spec_file
from .tensors import Tensor

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2

_SYNTAX_ERRORS = (SpecSyntaxError, ScalarParseError, OSError)
_SEMANTIC_ERRORS = (
    SpecSemanticError,
    PreconditionError,
    ParameterError,
    InconsistencyError,
    StabilizationError,
    FrameCalcError,
)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecalc",
        description="Exact verification of invariant symplectic connections on Lie frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the automorphism verdict chain")
    p_verify.add_argument("file")
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--vector", help="named vector from the spec file")
    which.add_argument(
        "--all-invariant",
        action="store_true",
        help="analyze a basis of the automorphism space",
    )
    p_verify.add_argument("--beta", type=_rational, default=None)
    p_verify.add_argument("--format", choices=("human", "machine"), default="human")

    p_moduli = sub.add_parser("moduli", help="solve the symplectic connection space")
    p_moduli.add_argument("file")
    p_moduli.add_argument("--format", choices=("human", "machine"), default="human")

    p_hol = sub.add_parser("holonomy", help="print infinitesimal holonomy generators")
    p_hol.add_argument("file")
    p_hol.add_argument("--beta", type=_rational, default=None)
    p_hol.add_argument("--format", choices=("human", "machine"), default="human")

    p_ex = sub.add_parser("paper-example", help="verify the built-in example family")
    mode = p_ex.add_mutually_exclusive_group()
    mode.add_argument("--beta", type=_rational, default=None)
    mode.add_argument("--symbolic", action="store_true")
    p_ex.add_argument("--format", choices=("human", "machine"), default="human")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "moduli":
            return _cmd_moduli(args)
        if args.command == "holonomy":
            return _cmd_holonomy(args)
        if args.command == "paper-example":
            return _cmd_example(args)
        raise AssertionError(f"unhandled command {args.command}")
    except _SYNTAX_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConventionFault:
        raise  # internal invariant broken: crash loudly, never exit 2
    except _SEMANTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


def console_main():  # pragma: no cover
    sys.exit(main())


# -- verify -------------------------------------------------------------------


def _cmd_verify(args) -> int:
    model = load_spec_file(args.file)
    if model.connection is None:
        raise SpecSemanticError("model has no connection; verify needs one")
    conn = model.connection
    if args.beta is not None:
        conn = conn.substitute(args.beta)

    geometry = Geometry(model.algebra, model.omega, conn)
    requested: list[tuple[str, Tensor]] = []
    if args.all_invariant:
        if not conn.is_rational():
            raise ParameterError(
                "the connection still carries the parameter; pass --beta to specialize"
            )
        space = automorphism_space(model.algebra, conn, geometry=geometry)
        for pos, v in enumerate(space.basis):
            requested.append((f"aut[{pos}]", v))
    else:
        if args.vector not in model.vectors:
            raise SpecSemanticError(f"no vector named {args.vector!r} in the spec file")
        vec = model.vectors[args.vector]
        if args.beta is not None:
            vec = vec.substitute(args.beta)
        requested.append((args.vector, vec))

    reports = [
        (name, verify_automorphism(model.algebra, model.omega, conn, vec, geometry=geometry))
        for name, vec in requested
    ]

    if args.beta is not None:
        beta_label = str(args.beta)
    elif model.document.parameter is not None:
        beta_label = "symbolic"
    else:
        beta_label = None
    if args.format == "machine":
        payload = [
            _report_json(model.name, name, args.beta, rep) for name, rep in reports
        ]
        print(json.dumps(payload[0] if len(payload) == 1 and not args.all_invariant else payload, indent=2))
    else:
        for name, rep in reports:
            _print_report_human(model.name, name, beta_label, rep)
    return EXIT_OK


def _form_entries(t: Tensor) -> list[dict]:
    return [{"i": i, "j": j, "v": v.render()} for (i, j), v in t.nonzero() if i < j]


def _subspace_vectors(space) -> list[list[str]]:
    return [[c.render() for c in v.comps] for v in space.basis]


def _report_json(model: str, vector: str, beta, rep: AutomorphismReport) -> dict:
    return {
        "model": model,
        "vector": vector,
        "beta": None if beta is None else str(beta),
        "is_affine_automorphism": rep.is_affine_automorphism,
        "is_symplectic": rep.is_symplectic,
        "d_flat": _form_entries(rep.d_flat),
        "divergence": rep.divergence.render(),
        "nilpotency_index": rep.nilpotency_index,
        "trace_powers": None
        if rep.trace_powers is None
        else [s.render() for s in rep.trace_powers],
        "image_chain": None
        if rep.image_chain is None
        else [_subspace_vectors(s) for s in rep.image_chain],
        "image_isotropic": rep.image_isotropic,
        "holonomy_commutes": rep.holonomy_commutes,
    }


def _yesno(flag) -> str:
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


def _print_report_human(model: str, vector: str, beta_label: str | None, rep: AutomorphismReport):
    print(f"model: {model}")
    print(f"vector: {vector}")
    if beta_label is not None:
        print(f"beta: {beta_label}")
    print(f"affine-automorphism: {_yesno(rep.is_affine_automorphism)}")
    print(f"symplectic: {_yesno(rep.is_symplectic)}")
    entries = _form_entries(rep.d_flat)
    if entries:
        body = ", ".join(f"({e['i']},{e['j']}) = {e['v']}" for e in entries)
    else:
        body = "0"
    print(f"d-flat: {body}")
    print(f"divergence: {rep.divergence}")
    print(f"d-flat-parallel: {_yesno(rep.d_flat_parallel)}")
    print(f"wedge-identity: {_yesno(rep.wedge_identity_holds)}")
    if rep.is_affine_automorphism:
        nil = rep.nilpotency_index
        print(f"nilpotency-index: {'none (not nilpotent)' if nil is None else nil}")
        print("trace-powers: " + ", ".join(str(s) for s in rep.trace_powers))
        print("image-chain-dims: " + ", ".join(str(s.dim) for s in rep.image_chain))
        print(f"image-isotropic: {_yesno(rep.image_isotropic)}")
        print(f"image-lagrangian: {_yesno(rep.image_lagrangian)}")
        print(f"holonomy-commutes: {_yesno(rep.holonomy_commutes)}")
    print()


# -- moduli -------------------------------------------------------------------


def _connection_entries(conn) -> list[dict]:
    return [{"i": i, "j": j, "k": k, "v": v.render()} for (i, j, k), v in conn.gamma.nonzero()]


def _cmd_moduli(args) -> int:
    model = load_spec_file(args.file)
    space = symplectic_connection_space(model.algebra, model.omega)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "model": model.name,
                    "dimension": space.dimension,
                    "particular": _connection_entries(space.particular),
                    "basis": [_connection_entries(b) for b in space.homogeneous_basis],
                },
                indent=2,
            )
        )
    else:
        print(f"model: {model.name}")
        print(f"dimension: {space.dimension}")
        part = _connection_entries(space.particular)
        body = "; ".join(f"({e['i']},{e['j']},{e['k']}) = {e['v']}" for e in part) or "0"
        print(f"particular: {body}")
        for pos, b in enumerate(space.homogeneous_basis):
            entries = _connection_entries(b)
            body = "; ".join(f"({e['i']},{e['j']},{e['k']}) = {e['v']}" for e in entries)
            print(f"basis[{pos}]: {body}")
    return EXIT_OK


# -- holonomy -----------------------------------------------------------------


def _cmd_holonomy(args) -> int:
    model = load_spec_file(args.file)
    if model.connection is None:
        raise SpecSemanticError("model has no connection; holonomy needs one")
    conn = model.connection
    if args.beta is not None:
        conn = conn.substitute(args.beta)
    generators = infinitesimal_holonomy(model.algebra, conn, omega=model.omega)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "model": model.name,
                    "beta": None if args.beta is None else str(args.beta),
                    "generator_count": len(generators),
                    "span_dimension": len(generators),
                    "generators": [
                        [
                            [g[(i, k)].render() for k in range(1, model.algebra.dim + 1)]
                            for i in range(1, model.algebra.dim + 1)
                        ]
                        for g in generators
                    ],
                },
                indent=2,
            )
        )
    else:
        print(f"model: {model.name}")
        if not generators:
            print("generators: 0 (flat)")
        else:
            print(f"generators: {len(generators)}")
            print(f"span-dimension: {len(generators)}")
            dim = model.algebra.dim
            for pos, g in enumerate(generators):
                rows = [
                    "[" + ", ".join(g[(i, k)].render() for k in range(1, dim + 1)) + "]"
                    for i in range(1, dim + 1)
                ]
                print(f"generator[{pos}]: " + " ".join(rows))
    return EXIT_OK


# -- the built-in example -------------------------------------------------------


def _cmd_example(args) -> int:
    beta = None if args.symbolic or args.beta is None else args.beta
    checks = example_identity_checks(beta)
    ok = all(c.ok for c in checks)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "model": "kodaira_thurston",
                    "beta": None if beta is None else str(beta),
                    "checks": [
                        {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
                    ],
                    "all_ok": ok,
                },
                indent=2,
            )
        )
    else:
        print(f"beta: {'symbolic' if beta is None else beta}")
        for c in checks:
            print(f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
        print(f"result: {'all identities verified' if ok else 'FAILURES PRESENT'}")
    return EXIT_OK if ok else EXIT_SEMANTIC


if __name__ == "__main__":  # pragma: no cover
    console_main()
