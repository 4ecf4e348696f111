"""The CLI: verify-witness on pair-extension witnesses, the exit-code
contract on malformed documents, closed documents (an unknown key is a
usage error), each command and exit code, and ``classify`` reports against
their recorded hashes."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from liecodim import cli
from liecodim.cli import (
    EXIT_OK,
    EXIT_TRAP,
    EXIT_USAGE,
    EXIT_VERDICT,
    MAX_ALGEBRA_DIM,
    algebra_to_document,
    canonical_json,
    main,
    matrix_to_document,
)
from liecodim.exactla import Matrix, frac
from liecodim.ext import (ConditionDisagreement, build_double_extension,
                          extend_by_derivation)
from liecodim.liealg import abelian, heisenberg3

RECORDED = json.loads((Path(__file__).resolve().parent.parent / "bench"
                       / "report_hashes.json").read_text())


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _pair_witness(tmp_path, d, d_prime, coeffs):
    """Write both algebra documents and a pair witness with identity sigma
    relating the pair (d, d_prime) to itself; return the CLI arguments."""
    built = build_double_extension(abelian(2), d_prime, d,
                                   (Fraction(0), Fraction(0)))
    alg = _write(tmp_path / "alg.json", algebra_to_document(built))
    pair = [matrix_to_document(d), matrix_to_document(d_prime)]
    witness = _write(tmp_path / "witness.json", {
        "kind": "pair",
        "sigma": matrix_to_document(Matrix.identity(2)),
        "coeffs": matrix_to_document(Matrix.from_rows(coeffs)),
        "pair1": pair,
        "pair2": pair,
    })
    return ["verify-witness", alg, alg, "--witness", witness]


D = Matrix.diagonal([1, 2])
D_PRIME = Matrix.diagonal([1, 0])


class TestVerifyPairWitness:
    def test_identity_coefficients_verify(self, tmp_path, capsys):
        argv = _pair_witness(tmp_path, D, D_PRIME, [[1, 0], [0, 1]])
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.strip() == "witness verifies"

    def test_swapped_coefficients_fail(self, tmp_path, capsys):
        argv = _pair_witness(tmp_path, D, D_PRIME, [[0, 1], [1, 0]])
        assert main(argv) == EXIT_VERDICT
        assert capsys.readouterr().out.strip() == "witness fails"

    def test_malformed_coefficients_are_a_usage_error(self, tmp_path, capsys):
        argv = _pair_witness(tmp_path, D, D_PRIME,
                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "coefficient matrix must be 2x2" in err
        assert "Traceback" not in err

    def test_proportional_pair_is_a_precondition_verdict(self, tmp_path,
                                                         capsys):
        argv = _pair_witness(tmp_path, D, D.scale(3), [[1, 0], [0, 1]])
        assert main(argv) == EXIT_VERDICT
        err = capsys.readouterr().err
        assert err.startswith("error: PreconditionViolated:")
        assert "Traceback" not in err


class TestMalformedDocuments:
    """Malformed input exits 1 with a message naming what is wrong, never
    with a traceback."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def _witness(self, tmp_path, witness):
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(2)))
        return ["verify-witness", alg, alg,
                "--witness", _write(tmp_path / "witness.json", witness)]

    def test_witness_that_is_not_an_object(self, tmp_path, capsys):
        code, err = self._run(self._witness(tmp_path, [1]), capsys)
        assert code == EXIT_USAGE
        assert "witness document must be a JSON object" in err

    def test_full_witness_without_matrix(self, tmp_path, capsys):
        code, err = self._run(self._witness(tmp_path, {"kind": "full"}),
                              capsys)
        assert code == EXIT_USAGE
        assert "'matrix' is missing" in err

    def test_pair_with_one_member(self, tmp_path, capsys):
        identity = matrix_to_document(Matrix.identity(2))
        code, err = self._run(self._witness(tmp_path, {
            "kind": "pair", "sigma": identity, "coeffs": identity,
            "pair1": [identity], "pair2": [identity, identity]}), capsys)
        assert code == EXIT_USAGE
        assert "'pair1'" in err

    def test_triple_with_scalar_u(self, tmp_path, capsys):
        identity = matrix_to_document(Matrix.identity(2))
        code, err = self._run(self._witness(tmp_path, {
            "kind": "triple", "base": algebra_to_document(abelian(2)),
            "d1": identity, "d2": identity, "sigma": identity,
            "alpha": "1", "u": 5}), capsys)
        assert code == EXIT_USAGE
        assert "'u'" in err

    @pytest.mark.parametrize("doc, message", [
        ({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": []}]},
         "'coeffs' must be an object"),
        ({"dim": 2, "brackets": 5}, "'brackets' must be a list"),
    ])
    def test_validate_malformed_brackets(self, tmp_path, capsys, doc, message):
        code, err = self._run(
            ["validate", _write(tmp_path / "alg.json", doc)], capsys)
        assert code == EXIT_USAGE
        assert message in err

    @pytest.mark.parametrize("doc, message", [
        ({"dim": True}, "'dim' must be a non-negative integer"),
        ({"dim": MAX_ALGEBRA_DIM + 1}, f"'dim' must be at most {MAX_ALGEBRA_DIM}"),
        ({"dim": 2, "brackets": [{"i": True, "j": 2, "coeffs": {"1": "1"}}]},
         "need integer indices"),
    ])
    def test_validate_boolean_or_oversized_dim(self, tmp_path, capsys, doc,
                                               message):
        code, err = self._run(
            ["validate", _write(tmp_path / "alg.json", doc)], capsys)
        assert code == EXIT_USAGE
        assert message in err

    @pytest.mark.parametrize("key", ["01", "1_0", " 1"])
    def test_validate_rejects_a_non_canonical_target_index(self, tmp_path,
                                                           capsys, key):
        # int() reads each of these keys as a valid index of a 10-dim
        # algebra; only the canonical decimal key "1" or "10" is accepted.
        doc = {"dim": 10, "brackets": [{"i": 2, "j": 3, "coeffs": {key: "1"}}]}
        code, err = self._run(
            ["validate", _write(tmp_path / "alg.json", doc)], capsys)
        assert code == EXIT_USAGE
        assert f"bad target index {key!r}" in err

    @pytest.mark.parametrize("coeffs, message", [
        ('{"1": "1", "1": "5"}', "repeated key '1'"),
        ('{"1": "1", "01": "5"}', "bad target index '01'"),
    ])
    def test_validate_rejects_a_coefficient_given_twice(self, tmp_path,
                                                        capsys, coeffs,
                                                        message):
        # json keeps the last of two equal keys, and "01" read as 1, so
        # either document kept only the coefficient 5.
        path = tmp_path / "alg.json"
        path.write_text('{"dim": 3, "brackets": [{"i": 2, "j": 3, '
                        f'"coeffs": {coeffs}}}]}}')
        code, err = self._run(["validate", str(path)], capsys)
        assert code == EXIT_USAGE
        assert message in err

    def test_validate_accepts_the_largest_dim(self, tmp_path, capsys):
        code = main(["validate", _write(tmp_path / "alg.json",
                                        {"dim": MAX_ALGEBRA_DIM})])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith(
            f"valid Lie algebra of dimension {MAX_ALGEBRA_DIM}")

    def test_extend_with_boolean_matrix_shape(self, tmp_path, capsys):
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(1)))
        d = _write(tmp_path / "d.json",
                   {"rows": True, "cols": 1, "entries": ["1"]})
        code, err = self._run(["extend", alg, "--derivation", d], capsys)
        assert code == EXIT_USAGE
        assert "matrix needs integer 'rows' and 'cols'" in err

    @pytest.mark.parametrize("rows", [10**6, -1])
    def test_matrix_shape_out_of_range(self, tmp_path, capsys, rows):
        # Checked before any entry is read: rows*cols = 0 matches the empty
        # entry list, so only the bound keeps the shape from being built.
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(1)))
        m = _write(tmp_path / "m.json",
                   {"rows": rows, "cols": 0, "entries": []})
        bound = f"must be between 0 and {MAX_ALGEBRA_DIM}"
        for argv in (["extend", alg, "--derivation", m],
                     ["verify-witness", alg, alg, "--witness",
                      _write(tmp_path / "witness.json",
                             {"kind": "full", "matrix": {
                                 "rows": rows, "cols": 0, "entries": []}})]):
            code, err = self._run(argv, capsys)
            assert code == EXIT_USAGE
            assert bound in err

    def test_extend_with_wrongly_shaped_derivation(self, tmp_path, capsys):
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(2)))
        d = _write(tmp_path / "d.json", matrix_to_document(Matrix.identity(3)))
        code, err = self._run(["extend", alg, "--derivation", d], capsys)
        assert code == EXIT_USAGE
        assert "derivation matrix has wrong shape" in err

    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, err = self._run(["validate", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "nested too deeply" in err

    @staticmethod
    def _algebra_with_coefficient(tmp_path, text):
        return _write(tmp_path / "alg.json", {
            "dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"1": text}}]})

    @pytest.mark.parametrize("text", ["1e3", "0.5"])
    def test_rational_with_exponent_or_decimal_point(self, tmp_path, capsys,
                                                      text):
        code, err = self._run(
            ["validate", self._algebra_with_coefficient(tmp_path, text)],
            capsys)
        assert code == EXIT_USAGE
        assert "bad rational" in err

    def test_signed_fraction_parses(self, tmp_path, capsys):
        code, _ = self._run(
            ["validate", self._algebra_with_coefficient(tmp_path, "-3/4")],
            capsys)
        assert code == EXIT_OK
        assert frac(" -3/4 ") == Fraction(-3, 4)


class TestExitCodes:
    """The 0/1/2 exit-code contract of ``classify`` and ``extend``."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err

    def test_classify_golden_ok(self, capsys):
        code, out, _ = self._run(["classify", "--base", "r1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["golden"]["ok"] is True

    def test_classify_unsupported_mode(self, capsys):
        code, _, _ = self._run(["classify", "--base", "r1", "--mode", "ext2ad"],
                               capsys)
        assert code == EXIT_USAGE

    def test_classify_unknown_grid_field(self, capsys):
        code, _, err = self._run(
            ["classify", "--base", "r1", "--grid", "bogus=1"], capsys)
        assert code == EXIT_USAGE
        assert "unknown grid field 'bogus'" in err

    @pytest.mark.parametrize("grid, field", [("num=-1", "num_max"),
                                             ("den=0", "den_max")])
    def test_classify_out_of_range_grid_field(self, capsys, grid, field):
        code, out, err = self._run(
            ["classify", "--base", "r1", "--grid", grid], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"grid field {field} must be at least 1" in err

    def test_classify_grid_field_given_twice(self, capsys):
        # The second value used to replace the first: the report read
        # "|p|<=2".
        code, out, err = self._run(
            ["classify", "--base", "r1", "--grid", "num=1,num=2"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: grid field 'num' given twice\n"

    @pytest.mark.parametrize("grid, value", [("num", "''"),
                                             ("seed=x", "'x'")])
    def test_classify_grid_value_names_its_field(self, capsys, grid, value):
        code, out, err = self._run(
            ["classify", "--base", "r1", "--grid", grid], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        field = grid.partition("=")[0]
        assert err == (f"error: grid field {field!r} needs an integer value, "
                       f"got {value}\n")

    @pytest.mark.parametrize("base, mode", [("r1", "ext1"),
                                            ("r2", "ext2ad")])
    def test_classify_writes_the_recorded_report(self, capsys, base, mode):
        code, out, _ = self._run(
            ["classify", "--base", base, "--mode", mode,
             "--grid", f"seed={RECORDED['seed']}"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() \
            == RECORDED["sha256"][f"{base}/{mode}"]

    def test_classify_has_no_jobs_option(self, capsys):
        code, out, err = self._run(
            ["classify", "--base", "r1", "--jobs", "2"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    def _extend(self, tmp_path, capsys, derivation, *extra):
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(2)))
        d = _write(tmp_path / "d.json", matrix_to_document(derivation))
        return self._run(["extend", alg, "--derivation", d, *extra], capsys)

    def test_extend_by_identity_is_a_member(self, tmp_path, capsys):
        code, out, _ = self._extend(tmp_path, capsys, Matrix.identity(2))
        assert code == EXIT_OK
        assert json.loads(out)["verdicts"]["member"] is True

    def test_extend_by_zero_is_not_a_member(self, tmp_path, capsys):
        code, out, _ = self._extend(tmp_path, capsys, Matrix.zero(2, 2))
        assert code == EXIT_VERDICT
        assert json.loads(out)["verdicts"]["member"] is False

    @pytest.mark.parametrize("second, decomposable", [
        (Matrix.identity(2), True),
        (Matrix.diagonal([1, 0]), False),
    ])
    def test_double_extension_decomposability(self, tmp_path, capsys,
                                              second, decomposable):
        path = _write(tmp_path / "second.json", matrix_to_document(second))
        code, out, _ = self._extend(tmp_path, capsys, Matrix.zero(2, 2),
                                    "--second", path, "--zy", "0,1")
        assert code == EXIT_OK
        assert json.loads(out)["verdicts"] == {
            "decomposable": decomposable, "member": True}

    def test_extend_by_a_non_derivation_names_the_failing_pair(self, tmp_path,
                                                               capsys):
        alg = _write(tmp_path / "alg.json", algebra_to_document(heisenberg3()))
        d = _write(tmp_path / "d.json", matrix_to_document(
            Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])))
        code, out, err = self._run(["extend", alg, "--derivation", d], capsys)
        assert code == EXIT_VERDICT
        assert out == ""
        assert err == ("error: NotADerivation: Leibniz identity fails on "
                       "basis pair (1, 3); residual (Fraction(-1, 1), "
                       "Fraction(0, 1), Fraction(0, 1))\n")

    def test_extend_zy_without_second_is_a_usage_error(self, tmp_path,
                                                       capsys):
        code, out, err = self._extend(tmp_path, capsys, Matrix.identity(2),
                                      "--zy", "5,7")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--zy needs --second" in err

    def test_extend_empty_zy_is_a_usage_error(self, tmp_path, capsys):
        second = _write(tmp_path / "second.json",
                        matrix_to_document(Matrix.diagonal([1, 0])))
        code, out, err = self._extend(tmp_path, capsys, Matrix.zero(2, 2),
                                      "--second", second, "--zy", "")
        assert code == EXIT_USAGE
        assert out == ""
        assert "vector" in err


def _run(argv, capsys):
    """Run the CLI; return its exit code, stdout and stderr, and insist no
    traceback reached stderr."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


IDENTITY2 = matrix_to_document(Matrix.identity(2))


def _triple_argv(tmp_path, d2_entries, **extra):
    """``verify-witness`` arguments for a triple witness over the abelian
    base of dimension 2, relating d1 = diag(1, 2) to d2 = diag(d2_entries)
    by sigma = 1, alpha = 1/2, u = 0, with ``extra`` keys laid over it, and
    the two extensions as the algebra documents."""
    d1, d2 = Matrix.diagonal([1, 2]), Matrix.diagonal(d2_entries)
    docs = [_write(tmp_path / f"l{k}.json", algebra_to_document(
        extend_by_derivation(abelian(2), d))) for k, d in ((1, d1), (2, d2))]
    witness = {"kind": "triple", "base": algebra_to_document(abelian(2)),
               "d1": matrix_to_document(d1), "d2": matrix_to_document(d2),
               "sigma": IDENTITY2, "alpha": "1/2", "u": ["0", "0"], **extra}
    return ["verify-witness", *docs,
            "--witness", _write(tmp_path / "witness.json", witness)]


class TestClosedDocuments:
    """A key outside its object's list exits 1 with one stderr line naming
    the key and where it sits; each of these documents used to be read
    with the key ignored."""

    @pytest.mark.parametrize("doc, message", [
        ({"dim": 3, "brackets": [{"i": 2, "j": 3, "coef": {"1": "1"}}]},
         "brackets[0]: unknown key 'coef'"),
        ({"dim": 3, "bracket": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]},
         "algebra document: unknown key 'bracket'"),
        ({"dim": 3, "nmae": "h3"}, "algebra document: unknown key 'nmae'"),
    ], ids=["bracket-coef", "top-level-bracket", "nmae"])
    def test_validate_rejects_a_misspelt_key(self, tmp_path, capsys, doc,
                                             message):
        code, out, err = _run(
            ["validate", _write(tmp_path / "alg.json", doc)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    def test_extend_rejects_a_matrix_with_an_extra_key(self, tmp_path,
                                                       capsys):
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(2)))
        d = _write(tmp_path / "d.json", {**IDENTITY2, "note": "identity"})
        code, out, err = _run(["extend", alg, "--derivation", d], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: matrix document: unknown key 'note'\n"

    def test_full_witness_with_an_extra_key(self, tmp_path, capsys):
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(2)))
        witness = _write(tmp_path / "witness.json", {
            "kind": "full", "matrix": IDENTITY2, "sigma": IDENTITY2})
        code, out, err = _run(
            ["verify-witness", alg, alg, "--witness", witness], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: full witness document: unknown key 'sigma'\n"

    def test_triple_witness_with_an_extra_key(self, tmp_path, capsys):
        argv = _triple_argv(tmp_path, [2, 4], matrix=IDENTITY2)
        code, out, err = _run(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: triple witness document: unknown key 'matrix'\n"

    def test_pair_witness_with_an_extra_key(self, tmp_path, capsys):
        argv = _pair_witness(tmp_path, D, D_PRIME, [[1, 0], [0, 1]])
        path = Path(argv[-1])
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "alpha": "1"}))
        code, out, err = _run(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: pair witness document: unknown key 'alpha'\n"

    def test_a_key_inside_a_witness_field_is_named_with_the_field(
            self, tmp_path, capsys):
        base = {**algebra_to_document(abelian(2)), "nmae": "r2"}
        code, _, err = _run(_triple_argv(tmp_path, [2, 4], base=base), capsys)
        assert code == EXIT_USAGE
        assert err == ("error: witness field 'base': algebra document: "
                       "unknown key 'nmae'\n")


class TestEveryCommand:
    """Each command and exit code of the CLI: the exit code, the shape of
    the output, and no traceback."""

    H3 = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}],
          "name": "h3"}
    # [e1, e2] = e2, [e2, e3] = e1: the Jacobi sum of (e1, e2, e3) is -e1.
    NOT_JACOBI = {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"2": "1"}},
        {"i": 2, "j": 3, "coeffs": {"1": "1"}}]}

    @pytest.mark.parametrize("h1", [False, True])
    def test_der_reports_the_derivations_of_h3(self, tmp_path, capsys, h1):
        argv = ["der", _write(tmp_path / "h3.json", self.H3)]
        code, out, err = _run(argv + ["--h1"] * h1, capsys)
        assert code == EXIT_OK
        assert err == ""
        doc = json.loads(out)
        assert out == canonical_json(doc)
        assert doc["kind"] == "derivations"
        assert doc["algebra"] == self.H3
        assert doc["dims"] == {"der": 6, "inner": 2, "h1": 4}
        assert [len(doc[k]) for k in ("der_basis", "inner_basis")] == [6, 2]
        assert len(doc.get("h1_basis", ())) == (4 if h1 else 0)
        assert all(m["rows"] == m["cols"] == 3 and len(m["entries"]) == 9
                   for m in doc["der_basis"])

    def test_validate_skip_jacobi_parses_a_failing_table(self, tmp_path,
                                                         capsys):
        code, out, err = _run(["validate", "--skip-jacobi", _write(
            tmp_path / "alg.json", self.NOT_JACOBI)], capsys)
        assert code == EXIT_OK
        assert err == ""
        assert out == "parsed dimension-3 table without validation\n"

    def test_validate_reports_a_jacobi_failure(self, tmp_path, capsys):
        code, out, err = _run(["validate", _write(
            tmp_path / "alg.json", self.NOT_JACOBI)], capsys)
        assert code == EXIT_VERDICT
        assert err == ""
        assert out == ("Jacobi identity fails on basis triple (1, 2, 3); "
                       "residual ['1', '0', '0']\n")

    @pytest.mark.parametrize("d2, code, verdict", [
        ([2, 4], EXIT_OK, "witness verifies"),
        ([2, 3], EXIT_VERDICT, "witness fails"),
    ])
    def test_triple_witness_is_checked(self, tmp_path, capsys, d2, code,
                                       verdict):
        got, out, err = _run(_triple_argv(tmp_path, d2), capsys)
        assert got == code
        assert err == ""
        assert out == verdict + "\n"

    @pytest.mark.parametrize("kind", ["bogus", ["full"], None])
    def test_unknown_witness_kind(self, tmp_path, capsys, kind):
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(2)))
        witness = _write(tmp_path / "witness.json",
                         {"kind": kind, "matrix": IDENTITY2})
        code, out, err = _run(
            ["verify-witness", alg, alg, "--witness", witness], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: unknown witness kind {kind!r}\n"

    def test_a_consistency_trap_exits_3(self, tmp_path, capsys, monkeypatch):
        def disagree(*args):
            raise ConditionDisagreement("the two conditions disagree")

        monkeypatch.setattr(cli, "check_codim1_condition", disagree)
        alg = _write(tmp_path / "alg.json", algebra_to_document(abelian(2)))
        d = _write(tmp_path / "d.json", IDENTITY2)
        code, out, err = _run(["extend", alg, "--derivation", d], capsys)
        assert code == EXIT_TRAP
        assert out == ""
        assert err == ("internal consistency trap: "
                       "the two conditions disagree\n")
