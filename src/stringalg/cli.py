"""Command-line interface with deterministic text (or JSON) reports.

Exit codes: 0 success, 2 invalid input, 3 certification failure, 4 search
cap exhausted, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import PathAlgebra, format_element
from .decompose import decompose_general, outer_class
from .errors import (CapExceededError, CertificationError, DecompositionError,
                     DerivationError, NotAUnitError, StringAlgError)
from .maximal import classify_maximal, degree_zero_center_dimension
from .morphisms import (exponentiate, format_endomorphism, inner_automorphism,
                        invert_unit, parse_derivation, parse_endomorphism,
                        verify_endomorphism)
from .polymat import format_poly_matrix, modified_smith, parse_poly_matrix
from .quiver import _lines, parse_quiver

USAGE_ERROR = 64
INVALID_INPUT = 2
CERTIFICATION_FAILURE = 3
CAP_EXHAUSTED = 4
# default longest path that basis lists (--max-len)
MAX_PATH_LENGTH = 64

_CERT = (CertificationError, DerivationError, NotAUnitError, DecompositionError)
# every other library error, an unreadable file and one that is not UTF-8
_INVALID = (StringAlgError, OSError, UnicodeDecodeError)


def _positive(text):
    """argparse type of --max-len: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser():
    """The parser, built on the first `run` and reused by every later one:
    `parse_args` returns a fresh namespace and changes nothing in it."""
    parser = _Parser(prog="stringalg", description=__doc__)
    parser.add_argument("--max-len", type=_positive, default=MAX_PATH_LENGTH,
                        help="length of the longest paths that basis lists")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON mirror of the text report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, files) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for file in files:
            command.add_argument(file)
    return parser


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _algebra(args):
    return PathAlgebra(parse_quiver(_read(args.quiver_file)))


def _emit(args, lines, data):
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_validate(args):
    presentation = parse_quiver(_read(args.quiver_file))
    if not presentation.is_valid:
        lines = [presentation.classification] + list(presentation.violations)
        _emit(args, lines, {"classification": presentation.classification,
                            "violations": list(presentation.violations)})
        return INVALID_INPUT
    algebra = PathAlgebra(presentation)
    finite, dim = algebra.is_finite_dimensional()
    parts = [presentation.classification,
             "finite-dimensional" if finite else "infinite-dimensional"]
    if finite:
        parts.append(f"dim {dim}")
    _emit(args, ["; ".join(parts)],
          {"classification": presentation.classification,
           "finite_dimensional": finite, "dimension": dim,
           "notes": list(presentation.violations)})
    return 0


def _cmd_basis(args):
    algebra = _algebra(args)
    paths = [str(p) for p in algebra.enumerate_basis(args.max_len)]
    _emit(args, paths, {"basis": paths})
    return 0


def _cmd_maximal(args):
    algebra = _algebra(args)
    report = classify_maximal(algebra)
    lines = ["finite maximal:"]
    lines += [f"  {p}" for p in report.finite_maximal]
    lines.append("infinite maximal:")
    lines += [f"  {imp}" for imp in report.infinite_maximal]
    _emit(args, lines, {
        "finite_maximal": [str(p) for p in report.finite_maximal],
        "infinite_maximal": [str(i) for i in report.infinite_maximal],
        "left_maximal": [str(p) for p in report.left_maximal],
        "right_maximal": [str(p) for p in report.right_maximal]})
    return 0


def _cmd_radical(args):
    algebra = _algebra(args)
    paths = [str(p) for p in algebra.radical_paths()]
    _emit(args, paths, {"radical_basis": paths})
    return 0


def _cmd_center0(args):
    algebra = _algebra(args)
    dim = degree_zero_center_dimension(algebra)
    _emit(args, [f"degree-0 center dimension: {dim}"], {"dimension": dim})
    return 0


def _cmd_derivation(args):
    algebra = _algebra(args)
    d = parse_derivation(algebra, _read(args.map_file))
    tags = sorted(d.type_tags)
    lines = [f"valid derivation; types: {', '.join(tags)}"]
    lines += [f"map {a} = {format_element(img)}" for a, img in d.assignments()]
    _emit(args, lines, {"types": tags,
                        "images": {a: format_element(img) for a, img in d.assignments()}})
    return 0


def _cmd_exp(args):
    algebra = _algebra(args)
    d = parse_derivation(algebra, _read(args.map_file))
    f = exponentiate(d)
    text = format_endomorphism(f)
    _emit(args, text.splitlines(), {"endomorphism": text})
    return 0


def _cmd_inner(args):
    algebra = _algebra(args)
    source = " ".join(line for _, line in _lines(_read(args.element_file)))
    u = invert_unit(algebra.parse_element(source))
    f = inner_automorphism(u)
    text = format_endomorphism(f)
    lines = [f"unit: {format_element(u.value)}",
             f"inverse: {format_element(u.inverse)}"] + text.splitlines()
    _emit(args, lines, {"unit": format_element(u.value),
                        "inverse": format_element(u.inverse),
                        "endomorphism": text})
    return 0


def _cmd_decompose(args):
    algebra = _algebra(args)
    f = verify_endomorphism(parse_endomorphism(algebra, _read(args.map_file)))
    decomposition = decompose_general(f)
    lines = []
    data = {"factors": [], "verified": True}
    for i, factor in enumerate(decomposition.factors, start=1):
        trivial = factor.is_trivial
        entry = {"kind": factor.kind, "trivial": trivial}
        lines.append(f"factor {i}: {factor.kind}" + (" (trivial)" if trivial else ""))
        if factor.unit is not None:
            entry["unit"] = format_element(factor.unit.value)
            lines.append(f"  unit {entry['unit']}")
        elif not trivial:
            entry["endomorphism"] = format_endomorphism(factor.endomorphism)
            lines += [f"  {line}" for line in entry["endomorphism"].splitlines()]
        data["factors"].append(entry)
    lines.append("verified: true")
    _emit(args, lines, data)
    return 0


def _cmd_smith(args):
    matrix = parse_poly_matrix(_read(args.matrix_file))
    # modified_smith returns only a factorization its certificate accepted
    fact = modified_smith(matrix)
    u, d, v = map(format_poly_matrix, (fact.U, fact.D, fact.V))
    sigma = " ".join(str(s + 1) for s in fact.sigma)
    lines = [f"U = {u}", f"D = {d}", f"sigma = {sigma}", f"V = {v}", "verified: true"]
    _emit(args, lines, {"U": u, "D": d, "sigma": list(fact.sigma), "V": v, "verified": True})
    return 0


def _cmd_outer_class(args):
    algebra = _algebra(args)
    report = outer_class(algebra)
    _emit(args, [f"shape: {report.shape}", f"group: {report.group_description}"],
          {"shape": report.shape, "group": report.group_description,
           "parallel_maximal_arrows": report.n_parallel_maximal})
    return 0


# each subcommand: (handler, help line, file arguments)
_COMMANDS = {
    "validate": (_cmd_validate, "classify a presentation", ("quiver_file",)),
    "basis": (_cmd_basis, "list basis paths up to --max-len", ("quiver_file",)),
    "maximal": (_cmd_maximal, "report maximal paths", ("quiver_file",)),
    "radical": (_cmd_radical, "list radical basis paths", ("quiver_file",)),
    "center0": (_cmd_center0, "degree-0 center dimension", ("quiver_file",)),
    "derivation": (_cmd_derivation, "validate and classify a derivation",
                   ("quiver_file", "map_file")),
    "exp": (_cmd_exp, "exponentiate a derivation", ("quiver_file", "map_file")),
    "inner": (_cmd_inner, "conjugation by a unit", ("quiver_file", "element_file")),
    "decompose": (_cmd_decompose, "decompose an automorphism", ("quiver_file", "map_file")),
    "smith": (_cmd_smith, "factor a polynomial matrix", ("matrix_file",)),
    "outer-class": (_cmd_outer_class, "outer class of a gentle presentation",
                    ("quiver_file",)),
}


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return _COMMANDS[args.command][0](args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_EXHAUSTED
    except _CERT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CERTIFICATION_FAILURE
    except _INVALID as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
