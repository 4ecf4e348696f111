"""Command-line interface: validation, derivation reports, extensions,
classification sweeps, and witness verification over JSON documents.

Exit codes: 0 success, 1 usage or parse error, 2 negative mathematical
verdict, 3 internal consistency trap (an invariant the library asserts at
runtime failed, which indicates a bug, not bad input).

Each kind of document has these keys, and no others:

- algebra: ``dim``, ``brackets`` (each ``i``, ``j``, ``coeffs``), ``name``;
- matrix: ``rows``, ``cols``, ``entries``;
- ``verify-witness`` of ``"kind": "full"``: ``kind``, ``matrix``;
- of ``"kind": "triple"``: ``kind``, ``base``, ``d1``, ``d2``, ``sigma``,
  ``alpha``, ``u``;
- of ``"kind": "pair"``: ``kind``, ``sigma``, ``coeffs``, ``pair1``,
  ``pair2``.

A key outside its object's list, like a key repeated within one object, is
a usage error (exit 1), as is a ``classify --grid`` field given twice.

In a ``"pair"`` witness each pair is [z-action, y-action] on an abelian
base.  ``coeffs = [[alpha, beta], [gamma, delta]]`` gives, row by
row, the combination of pair2 = (d2, d2') for each member of
pair1 = (d1, d1'): sigma d1 sigma^-1 = alpha*d2 + beta*d2' and
sigma d1' sigma^-1 = gamma*d2 + delta*d2', so identity coefficients mean
the identity on y and z.

An algebra document declares a dimension of at most ``MAX_ALGEBRA_DIM``
(16), and a matrix document at most that many rows and columns; a larger
one, a negative shape, or a JSON ``true`` where an integer belongs, is a
usage error.

All rationals in documents are strings "p/q" (or "p"); serialization is
canonical (sorted keys, two-space indent), so re-serializing a parsed
document reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Optional

from .canon import AmbiguousMatch
from .classify import GoldenMismatch, GridSpec, catalog, classify_extensions
from .deriv import NotADerivation, derivation_space
from .exactla import Matrix, NotInvertible, frac
from .ext import (
    ConditionDisagreement,
    IdentityFails,
    LieCSpec,
    NotAutomorphism,
    PreconditionViolated,
    build_double_extension,
    check_codim1_condition,
    check_codim2_condition,
    extend_by_derivation,
    is_decomposable_double,
    lie_c_iso_check,
    verify_iso_witness_full,
    witness_from_triple,
)
from .liealg import JacobiViolation, LieAlgebra, make_algebra

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2
EXIT_TRAP = 3

_TRAP_ERRORS = (ConditionDisagreement, AmbiguousMatch, AssertionError)

# The largest algebra dimension a document may declare.  A LieAlgebra of
# dimension n holds n x n basis tuples, so memory grows with n^2; every
# catalog sweep builds algebras of dimension 6 or less.
MAX_ALGEBRA_DIM = 16

# The keys of each kind of witness document.
_WITNESS_KEYS = {
    "full": ("kind", "matrix"),
    "triple": ("kind", "base", "d1", "d2", "sigma", "alpha", "u"),
    "pair": ("kind", "sigma", "coeffs", "pair1", "pair2"),
}


class DocumentError(Exception):
    """A document failed to parse; message carries field context."""


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_rational(text: Any, where: str) -> Fraction:
    if not isinstance(text, str):
        raise DocumentError(f"{where}: rationals must be strings, got {text!r}")
    try:
        return frac(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: bad rational {text!r} ({exc})") from exc


def _is_integer(x: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, though ``bool`` is an
    ``int`` in Python."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    """Raise :class:`DocumentError` naming the first key of ``doc`` outside
    ``allowed``, and ``where`` it sits: a misspelt key is an error, not a
    field left at its default."""
    for key in doc:
        if key not in allowed:
            raise DocumentError(f"{where}: unknown key {key!r}")


def algebra_to_document(alg: LieAlgebra) -> dict:
    brackets = []
    for (i, j), v in alg.table:
        coeffs = {str(k + 1): str(c) for k, c in enumerate(v) if c != 0}
        brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    doc: dict[str, Any] = {"dim": alg.dim, "brackets": brackets}
    if alg.name:
        doc["name"] = alg.name
    return doc


def algebra_from_document(doc: Any, skip_jacobi: bool = False) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise DocumentError("algebra document must be a JSON object")
    _check_keys(doc, ("dim", "brackets", "name"), "algebra document")
    if "dim" not in doc or not _is_integer(doc["dim"]) or doc["dim"] < 0:
        raise DocumentError("field 'dim' must be a non-negative integer")
    if doc["dim"] > MAX_ALGEBRA_DIM:
        raise DocumentError(f"field 'dim' must be at most {MAX_ALGEBRA_DIM}")
    dim = doc["dim"]
    brackets_doc = doc.get("brackets", [])
    if not isinstance(brackets_doc, list):
        raise DocumentError("field 'brackets' must be a list")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, entry in enumerate(brackets_doc):
        where = f"brackets[{pos}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: must be an object")
        _check_keys(entry, ("i", "j", "coeffs"), where)
        i, j = entry.get("i"), entry.get("j")
        if not (_is_integer(i) and _is_integer(j) and 1 <= i < j <= dim):
            raise DocumentError(f"{where}: need integer indices 1 <= i < j <= dim")
        coeffs_doc = entry.get("coeffs", {})
        if not isinstance(coeffs_doc, dict):
            raise DocumentError(f"{where}: 'coeffs' must be an object")
        coeffs = {}
        for k, val in coeffs_doc.items():
            try:
                k_int = int(k)
            except ValueError:
                k_int = None
            # only the canonical decimal key: int() also reads "01", "1_0"
            # and " 1", which would not survive a round trip
            if k_int is None or str(k_int) != k:
                raise DocumentError(f"{where}: bad target index {k!r}")
            if not 1 <= k_int <= dim:
                raise DocumentError(f"{where}: target index {k_int} out of range")
            coeffs[k_int] = _parse_rational(val, where)
        if (i, j) in brackets:
            raise DocumentError(f"{where}: duplicate bracket ({i},{j})")
        brackets[(i, j)] = coeffs
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("field 'name' must be a string")
    return make_algebra(dim, brackets, name, skip_jacobi=skip_jacobi)


def matrix_to_document(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [str(x) for row in m.entries for x in row]}


def matrix_from_document(doc: Any) -> Matrix:
    if not isinstance(doc, dict):
        raise DocumentError("matrix document must be a JSON object")
    _check_keys(doc, ("rows", "cols", "entries"), "matrix document")
    rows, cols = doc.get("rows"), doc.get("cols")
    if not (_is_integer(rows) and _is_integer(cols)):
        raise DocumentError("matrix needs integer 'rows' and 'cols'")
    if not (0 <= rows <= MAX_ALGEBRA_DIM and 0 <= cols <= MAX_ALGEBRA_DIM):
        raise DocumentError(f"matrix 'rows' and 'cols' must be between 0 "
                            f"and {MAX_ALGEBRA_DIM}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise DocumentError("matrix 'entries' must list rows*cols rationals")
    values = [_parse_rational(x, f"entries[{i}]") for i, x in enumerate(entries)]
    return Matrix.unflatten(tuple(values), rows, cols)


def vector_from_text(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_rational(part.strip(), "vector")
                 for part in text.split(","))


def _rational_list(doc: Any) -> tuple[Fraction, ...]:
    if not isinstance(doc, list):
        raise DocumentError("must be a list of rationals")
    return tuple(_parse_rational(x, f"[{i}]") for i, x in enumerate(doc))


def _matrix_pair(doc: Any) -> tuple[Matrix, Matrix]:
    if not isinstance(doc, list) or len(doc) != 2:
        raise DocumentError("must be a list of two matrices")
    return matrix_from_document(doc[0]), matrix_from_document(doc[1])


def _witness_field(wdoc: dict, name: str,
                   parse: Callable[[Any], Any] = matrix_from_document) -> Any:
    """Field ``name`` of a witness document, parsed; a missing or malformed
    field raises :class:`DocumentError` naming it."""
    if name not in wdoc:
        raise DocumentError(f"witness field {name!r} is missing")
    try:
        return parse(wdoc[name])
    except DocumentError as exc:
        raise DocumentError(f"witness field {name!r}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object from its ``(key, value)`` pairs; a repeated key, of
    which ``json`` would silently keep the last value, raises
    :class:`DocumentError` naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path}: nested too deeply") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    doc = _load_json(args.file)
    if args.skip_jacobi:
        alg = algebra_from_document(doc, skip_jacobi=True)
        print(f"parsed dimension-{alg.dim} table without validation")
        return EXIT_OK
    try:
        alg = algebra_from_document(doc)
    except JacobiViolation as exc:
        print(f"Jacobi identity fails on basis triple {exc.triple}; "
              f"residual {list(map(str, exc.residual))}")
        return EXIT_VERDICT
    print(f"valid Lie algebra of dimension {alg.dim}"
          + (f" ({alg.name})" if alg.name else ""))
    return EXIT_OK


def cmd_der(args) -> int:
    alg = algebra_from_document(_load_json(args.file))
    space = derivation_space(alg)
    doc = {
        "kind": "derivations",
        "algebra": algebra_to_document(alg),
        "dims": {"der": space.dim_full, "inner": space.dim_inner,
                 "h1": space.dim_h1},
        "der_basis": [matrix_to_document(space.matrix_from_flat(v))
                      for v in space.full.basis],
        "inner_basis": [matrix_to_document(space.matrix_from_flat(v))
                        for v in space.inner.basis],
    }
    if args.h1:
        doc["h1_basis"] = [matrix_to_document(m)
                           for m in space.h1_basis_matrices()]
    sys.stdout.write(canonical_json(doc))
    return EXIT_OK


def cmd_extend(args) -> int:
    if args.zy is not None and args.second is None:
        raise DocumentError("--zy needs --second: it is the [z,y] vector of "
                            "a double extension")
    alg = algebra_from_document(_load_json(args.file))
    d = matrix_from_document(_load_json(args.derivation))
    if args.second is None:
        verdict = check_codim1_condition(alg, d)
        ext = extend_by_derivation(alg, d)
        doc = {
            "kind": "extension",
            "algebra": algebra_to_document(ext),
            "verdicts": {
                "member": verdict.member,
                "span_inclusion": verdict.span_inclusion,
                "lower_block_rank": verdict.lower_block_rank,
                "quotient_invertible": verdict.quotient_invertible,
            },
        }
        sys.stdout.write(canonical_json(doc))
        return EXIT_OK if verdict.member else EXIT_VERDICT
    second = matrix_from_document(_load_json(args.second))
    zy = vector_from_text(args.zy) if args.zy is not None else \
        tuple(Fraction(0) for _ in range(alg.dim))
    if len(zy) != alg.dim:
        raise DocumentError("--zy length must equal the base dimension")
    ext = build_double_extension(alg, d, second, zy)
    from .ext import double_extension_matrix

    d_full = double_extension_matrix(alg, second, zy)
    verdict2 = check_codim2_condition(alg, d, d_full)
    doc = {
        "kind": "double-extension",
        "algebra": algebra_to_document(ext),
        "verdicts": {"member": verdict2.member},
    }
    if d.is_zero():
        cert = is_decomposable_double(alg, d_full)
        doc["verdicts"]["decomposable"] = cert.decomposable
    sys.stdout.write(canonical_json(doc))
    return EXIT_OK if verdict2.member else EXIT_VERDICT


def cmd_classify(args) -> int:
    grid = GridSpec.parse(args.grid) if args.grid else None
    try:
        report = classify_extensions(args.base, args.mode, grid)
    except GoldenMismatch as exc:
        print(f"golden mismatch: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    sys.stdout.write(canonical_json(report.as_dict()))
    return EXIT_OK


def cmd_verify_witness(args) -> int:
    doc1 = _load_json(args.file1)
    doc2 = _load_json(args.file2)
    wdoc = _load_json(args.witness)
    l1 = algebra_from_document(doc1)
    l2 = algebra_from_document(doc2)
    if not isinstance(wdoc, dict):
        raise DocumentError("witness document must be a JSON object")
    kind = wdoc.get("kind")
    if not isinstance(kind, str) or kind not in _WITNESS_KEYS:
        raise DocumentError(f"unknown witness kind {kind!r}")
    _check_keys(wdoc, _WITNESS_KEYS[kind], f"{kind} witness document")
    if kind == "full":
        ok = verify_iso_witness_full(l1, l2, _witness_field(wdoc, "matrix"))
    elif kind == "triple":
        base = _witness_field(wdoc, "base", algebra_from_document)
        d1 = _witness_field(wdoc, "d1")
        d2 = _witness_field(wdoc, "d2")
        sigma = _witness_field(wdoc, "sigma")
        alpha = _witness_field(wdoc, "alpha",
                               lambda x: _parse_rational(x, "value"))
        u = _witness_field(wdoc, "u", _rational_list)
        if extend_by_derivation(base, d1).table != l1.table or \
                extend_by_derivation(base, d2).table != l2.table:
            raise DocumentError(
                "documents do not match the extensions named by the witness")
        try:
            _, ok = witness_from_triple(base, d1, d2, sigma, alpha, u)
        except IdentityFails:
            ok = False
    else:
        sigma = _witness_field(wdoc, "sigma")
        coeffs = _witness_field(wdoc, "coeffs")
        spec1 = LieCSpec(sigma.rows, *_witness_field(wdoc, "pair1", _matrix_pair))
        spec2 = LieCSpec(sigma.rows, *_witness_field(wdoc, "pair2", _matrix_pair))
        if spec1.build().table != l1.table or spec2.build().table != l2.table:
            raise DocumentError(
                "documents do not match the pair extensions in the witness")
        ok = lie_c_iso_check(spec1, spec2, sigma, coeffs)
    print("witness verifies" if ok else "witness fails")
    return EXIT_OK if ok else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecodim",
        description="Exact classification toolkit for solvable Lie algebras "
                    "with small-codimension derived algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra document")
    p.add_argument("file")
    p.add_argument("--skip-jacobi", action="store_true",
                   help="parse only; accept tables violating Jacobi")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("der", help="derivations, inner derivations, cohomology")
    p.add_argument("file")
    p.add_argument("--h1", action="store_true",
                   help="include the cohomology transversal basis")
    p.set_defaults(func=cmd_der)

    p = sub.add_parser("extend", help="extend an algebra by derivations")
    p.add_argument("file")
    p.add_argument("--derivation", required=True, metavar="MATRIX_FILE")
    p.add_argument("--second", metavar="MATRIX_FILE",
                   help="action of the second generator (double extension)")
    p.add_argument("--zy", metavar="VECTOR",
                   help="comma-separated [z,y] vector for the double extension")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("classify", help="run a classification sweep")
    p.add_argument("--base", required=True, choices=sorted(catalog().keys()))
    p.add_argument("--mode", choices=["ext1", "ext2ad"], default="ext1")
    p.add_argument("--grid", help="grid spec, e.g. num=3,den=3,random=200")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-witness", help="verify an isomorphism witness")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_verify_witness)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JacobiViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (NotADerivation, NotAutomorphism, NotInvertible,
            PreconditionViolated, IdentityFails) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except _TRAP_ERRORS as exc:
        print(f"internal consistency trap: {exc}", file=sys.stderr)
        return EXIT_TRAP
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
