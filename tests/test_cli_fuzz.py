"""The CLI's exit-code contract under mutated documents.

Each example takes a valid algebra, matrix or witness document of one
command, mutates it (renamed, dropped and repeated keys, swapped types,
huge integers, long digit strings, deep nesting) and runs ``cli.main``
in-process on it.  Every exit code is 0-3 and nothing escapes ``main``.  An
error exit (1 or 3, or 2 from a raised verdict) prints exactly one stderr
line; a verdict the command writes out (``validate``'s Jacobi failure,
``extend``'s nonmember, ``verify-witness``'s failing witness) exits 2 with
its verdict on stdout and nothing on stderr.  An algebra document that
``validate`` accepts is read back from ``algebra_to_document`` to the same
bytes.
"""

import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liecodim.cli import (
    algebra_from_document,
    algebra_to_document,
    canonical_json,
    main,
    matrix_to_document,
)
from liecodim.exactla import Matrix
from liecodim.ext import build_double_extension, extend_by_derivation
from liecodim.liealg import abelian, heisenberg3


class Obj:
    """A JSON object as its list of (key, value) pairs, so a mutation can
    repeat a key."""

    def __init__(self, pairs):
        self.pairs = list(pairs)


class Raw:
    """JSON text written as it is: an integer too long for ``json.dumps``,
    or a nesting deeper than it would recurse."""

    def __init__(self, text):
        self.text = text


def tree(value):
    """The mutable tree of a JSON value: objects become ``Obj``, arrays
    lists."""
    if isinstance(value, dict):
        return Obj((k, tree(v)) for k, v in value.items())
    if isinstance(value, list):
        return [tree(v) for v in value]
    return value


def dump(node) -> str:
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}"
                               for k, v in node.pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dump, node)) + "]"
    if isinstance(node, Raw):
        return node.text
    return json.dumps(node)


def nodes(node):
    """Every node of the tree, the root first."""
    yield node
    children = ([v for _, v in node.pairs] if isinstance(node, Obj)
                else node if isinstance(node, list) else ())
    for child in children:
        yield from nodes(child)


KEYS = ["dim", "brackets", "name", "i", "j", "coeffs", "rows", "cols",
        "entries", "kind", "matrix", "base", "d1", "d2", "sigma", "alpha",
        "u", "pair1", "pair2", "Dim", "bracket", "coef", "", "1"]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.floats(),
    st.sampled_from(["", "0", "1", "-1/2", "1/0", "x", "1e3", "0.5", "3",
                     "full", "triple", "pair"]),
    # huge integers and long digit strings
    st.integers(18, 6000).map(lambda k: Raw("1" + "0" * k)),
    st.integers(18, 6000).map(lambda k: "9" * k),
    st.integers(18, 6000).map(lambda k: "1/" + "7" * k),
    # deep nesting, around and beyond the parser's recursion limit
    st.sampled_from([50, 900, 3000, 100_000]).map(
        lambda d: Raw("[" * d + "1" + "]" * d)),
    st.just([]), st.just(Obj(())))


def mutate(data, root):
    """Apply one mutation at a node drawn from the tree; return the new
    root."""
    all_nodes = list(nodes(root))
    node = data.draw(st.sampled_from(all_nodes))
    kinds = ["swap"]
    if isinstance(node, Obj) and node.pairs:
        kinds += ["rename", "drop", "repeat"]
    if isinstance(node, list) and node:
        kinds += ["drop", "repeat"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "swap":
        new = data.draw(SCALARS)
        if node is root:
            return new
        for parent in all_nodes:
            if isinstance(parent, Obj):
                parent.pairs = [(k, new if v is node else v)
                                for k, v in parent.pairs]
            elif isinstance(parent, list):
                parent[:] = [new if v is node else v for v in parent]
        return root
    items = node.pairs if isinstance(node, Obj) else node
    at = data.draw(st.integers(0, len(items) - 1))
    if kind == "drop":
        del items[at]
    elif kind == "repeat":
        items.insert(at, items[at])
    else:
        items[at] = (data.draw(st.sampled_from(KEYS)), items[at][1])
    return root


H3 = algebra_to_document(heisenberg3())
H3_DERIVATION = matrix_to_document(Matrix.diagonal([2, 1, 1]))
IDENTITY2 = matrix_to_document(Matrix.identity(2))
_D1, _D2 = Matrix.diagonal([1, 2]), Matrix.diagonal([2, 4])
_TRIPLE_DOCS = [algebra_to_document(extend_by_derivation(abelian(2), d))
                for d in (_D1, _D2)]
_PAIR = build_double_extension(abelian(2), Matrix.diagonal([1, 0]), _D1,
                               (Fraction(0), Fraction(0)))

# Each command as (arguments, its documents); "{k}" is document k's file.
COMMANDS = [
    (["validate", "{0}"], [H3]),
    (["der", "{0}", "--h1"], [H3]),
    (["extend", "{0}", "--derivation", "{1}"], [H3, H3_DERIVATION]),
    (["verify-witness", "{0}", "{1}", "--witness", "{2}"],
     [H3, H3, {"kind": "full",
               "matrix": matrix_to_document(Matrix.identity(3))}]),
    (["verify-witness", "{0}", "{1}", "--witness", "{2}"],
     _TRIPLE_DOCS + [{"kind": "triple",
                      "base": algebra_to_document(abelian(2)),
                      "d1": matrix_to_document(_D1),
                      "d2": matrix_to_document(_D2), "sigma": IDENTITY2,
                      "alpha": "1/2", "u": ["0", "0"]}]),
    (["verify-witness", "{0}", "{0}", "--witness", "{1}"],
     [algebra_to_document(_PAIR),
      {"kind": "pair", "sigma": IDENTITY2, "coeffs": IDENTITY2,
       "pair1": [matrix_to_document(_D1),
                 matrix_to_document(Matrix.diagonal([1, 0]))],
       "pair2": [matrix_to_document(_D1),
                 matrix_to_document(Matrix.diagonal([1, 0]))]}]),
]


def test_every_command_accepts_its_unmutated_documents(tmp_path, capsys):
    for argv, docs in COMMANDS:
        paths = []
        for k, doc in enumerate(docs):
            path = tmp_path / f"doc{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        assert main([a.format(*paths) for a in argv]) == 0
        assert capsys.readouterr().err == ""


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(tmp_path, capsys,
                                                       data):
    argv, docs = data.draw(st.sampled_from(COMMANDS))
    target = data.draw(st.integers(0, len(docs) - 1))
    root = tree(docs[target])
    for _ in range(data.draw(st.integers(1, 3))):
        root = mutate(data, root)
    texts = [json.dumps(doc) for doc in docs]
    texts[target] = dump(root)
    paths = []
    for k, text in enumerate(texts):
        path = tmp_path / f"doc{k}.json"
        path.write_text(text)
        paths.append(str(path))
    capsys.readouterr()
    code = main([a.format(*paths) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    elif err or code != 2:
        assert err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert out
    if argv[0] == "validate" and code == 0:
        text = canonical_json(algebra_to_document(
            algebra_from_document(json.loads(texts[0]))))
        again = canonical_json(algebra_to_document(
            algebra_from_document(json.loads(text))))
        assert again == text
