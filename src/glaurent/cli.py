"""Command-line front end.

Three subcommands over a JSON instance file: ``kernel`` prints the
degree-zero lattice and the rays, ``positivity`` prints the verdict with its
certificate, and ``component`` describes one graded component.  Output is
deterministic byte for byte; everything is sorted and sign-normalized by the
underlying library.

Exit codes: 0 ok, 1 output pipe closed by the reader (nothing is printed to
stderr), 2 parse error, 3 invalid instance, 4 degree not attained within the
search bound.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

from .components import (
    FiniteBasis,
    ModuleGenerators,
    NotInQ,
    component,
)
from .exactmat import DimensionMismatch, IntMatrix, int_vector
from .grading import (
    SEARCH_BOUND,
    ActionSpec,
    DegreeVector,
    InvalidTorsion,
    NotFaithful,
    associated_vectors,
)
from .positivity import positivity_test

_BROKEN_PIPE = 1
_PARSE_ERROR = 2
_INVALID_INSTANCE = 3
_DEGREE_NOT_FOUND = 4


class _InstanceError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _array(value, name: str) -> list:
    """``value`` if it is a JSON array; strings and objects are not iterated."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be an array, got {value!r}")
    return value


def load_instance(path: str) -> ActionSpec:
    """Read an instance file; raises :class:`_InstanceError` with exit code."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _InstanceError(f"cannot read {path}: {exc}", _PARSE_ERROR)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _InstanceError(f"invalid instance document: {exc}", _PARSE_ERROR)
    if not isinstance(raw, dict):
        raise _InstanceError("instance document must be an object", _PARSE_ERROR)
    try:
        # JSON numbers like 1.7 and values like "2" or true are refused, not coerced
        (p,) = int_vector([raw["p"]])
        torsion = int_vector(_array(raw.get("torsion", []), "torsion"))
        (r,) = int_vector([raw["r"]])
        (s,) = int_vector([raw["s"]])
        rows = [int_vector(_array(row, "a row of L")) for row in _array(raw["L"], "L")]
    except (KeyError, TypeError, ValueError) as exc:
        raise _InstanceError(f"malformed instance field: {exc}", _PARSE_ERROR)
    try:
        weights = IntMatrix.from_rows(rows, r + s)
        return ActionSpec(r, s, p, torsion, weights)
    except DimensionMismatch as exc:
        raise _InstanceError(f"malformed instance: {exc}", _PARSE_ERROR)
    except InvalidTorsion as exc:
        raise _InstanceError(f"invalid instance: {exc}", _INVALID_INSTANCE)


def _vec(v) -> str:
    return "[" + ", ".join(str(x) for x in v) + "]"


def cmd_kernel(spec: ActionSpec, out) -> int:
    kd = associated_vectors(spec)
    if kd.l == 0:
        print("l = 0, kernel trivial", file=out)
        return 0
    print(f"l = {kd.l}", file=out)
    for j in range(kd.l):
        print(f"K column {j + 1}: {_vec(kd.basis.col(j))}", file=out)
    for i, ray in enumerate(kd.rays):
        print(f"ray v{i + 1} = {_vec(ray)}", file=out)
    return 0


def cmd_positivity(spec: ActionSpec, out) -> int:
    verdict = positivity_test(spec)
    if verdict.positive:
        print("positive", file=out)
        return 0
    if verdict.failed_condition is not None:
        print(f"not positive: necessary condition {verdict.failed_condition}", file=out)
        return 0
    print("not positive", file=out)
    if verdict.halfspace_normal is not None:
        print(f"half-space normal: {_vec(verdict.halfspace_normal)}", file=out)
    if verdict.flip_set is not None:
        flips = ", ".join(str(i + 1) for i in verdict.flip_set)
        print("flip set: {" + flips + "}", file=out)
    return 0


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _strict_int(text: str) -> int:
    """An optional sign and ASCII digits, with surrounding spaces allowed.

    ``int`` alone would also read ``1_0`` as 10 and non-ASCII digits.
    """
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_degree(spec: ActionSpec, text: str) -> DegreeVector:
    try:
        values = [_strict_int(x) for x in text.split(",")]
    except ValueError:
        raise _InstanceError(f"invalid degree {text!r}", _PARSE_ERROR)
    try:
        return DegreeVector.from_values(spec, values)
    except DimensionMismatch as exc:
        raise _InstanceError(str(exc), _PARSE_ERROR)


def cmd_component(spec: ActionSpec, a: DegreeVector, bound: int, as_json: bool, out) -> int:
    desc = component(spec, a, search_bound=bound)
    if as_json:
        print(json.dumps(_component_json(desc), indent=2, sort_keys=True), file=out)
        return _DEGREE_NOT_FOUND if isinstance(desc.kind, NotInQ) else 0
    print(f"degree: {desc.degree}", file=out)
    kind = desc.kind
    if isinstance(kind, NotInQ):
        if kind.conclusive:
            print("degree not attained: component is zero", file=out)
        else:
            print(f"no monomial of this degree found within bound {kind.bound}", file=out)
        return _DEGREE_NOT_FOUND
    print(f"representative: {_vec(desc.representative)}", file=out)
    if isinstance(kind, FiniteBasis):
        print(f"dim = {len(kind.monomials)}", file=out)
        print("basis: " + ", ".join(str(x) for x in kind.monomials), file=out)
        return 0
    assert isinstance(kind, ModuleGenerators)
    print("infinite dimensional", file=out)
    print("S0 generators: " + ", ".join(str(x) for x in kind.s0_gens), file=out)
    print("module generators: " + ", ".join(str(x) for x in kind.sa_gens), file=out)
    return 0


def _component_json(desc) -> dict:
    doc: dict = {
        "degree": {
            "free": list(desc.degree.free),
            "torsion": list(desc.degree.torsion),
            "moduli": list(desc.degree.moduli),
        },
        "representative": None if desc.representative is None else list(desc.representative),
    }
    kind = desc.kind
    if isinstance(kind, NotInQ):
        doc["kind"] = "not_in_q"
        doc["bound"] = kind.bound
        doc["conclusive"] = kind.conclusive
    elif isinstance(kind, FiniteBasis):
        doc["kind"] = "finite"
        doc["dim"] = len(kind.monomials)
        doc["basis"] = [str(x) for x in kind.monomials]
    else:
        doc["kind"] = "module"
        doc["s0_generators"] = [str(x) for x in kind.s0_gens]
        doc["module_generators"] = [str(x) for x in kind.sa_gens]
    return doc


def _bound(text: str) -> int:
    value = _strict_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"search bound must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glaurent",
        description="Graded components of multigraded Laurent polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("kernel", "positivity"):
        cmd = sub.add_parser(name)
        cmd.add_argument("file")
    comp = sub.add_parser("component")
    comp.add_argument("file")
    comp.add_argument("--degree", required=True, help="comma-separated degree entries")
    comp.add_argument("--bound", type=_bound, default=SEARCH_BOUND, help="representative search bound")
    comp.add_argument("--json", action="store_true", dest="as_json")
    return parser


_PARSER = _build_parser()


def _bind_degree(argv: list[str]) -> list[str]:
    """``--degree V`` as ``--degree=V``: argparse reads a spaced value such
    as ``-1,2`` as an option and stops with "expected one argument"."""
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--degree" else None
        out.append(token if value is None else f"--degree={value}")
    return out


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    argv = _bind_degree(sys.argv[1:] if argv is None else list(argv))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return _PARSE_ERROR if exc.code not in (0, None) else 0
    try:
        spec = load_instance(args.file)
        if args.command == "kernel":
            return cmd_kernel(spec, out)
        if args.command == "positivity":
            return cmd_positivity(spec, out)
        a = _parse_degree(spec, args.degree)
        return cmd_component(spec, a, args.bound, args.as_json, out)
    except _InstanceError as exc:
        print(f"error: {exc}", file=err)
        return exc.code
    except NotFaithful as exc:
        print(f"error: not a faithful action: {exc}", file=err)
        return _INVALID_INSTANCE


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: send the rest of stdout, including the
        # interpreter's final flush, to devnull so that exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = _BROKEN_PIPE
    raise SystemExit(code)
