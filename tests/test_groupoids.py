import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gspace import (Groupoid, InputError, build_builtin, groupoid_properties,
                    is_homomorphism, parse_groupoid)

Z2_DOC = json.dumps({
    "name": "Z2",
    "elements": ["e", "a"],
    "table": [["e", "a"], ["a", "e"]],
})

Z3_DOC = """
name: Z3
elements: [e, a, b]
table:
  - [e, a, b]
  - [a, b, e]
  - [b, e, a]
"""


def test_cyclic_table_entry():
    g = build_builtin("cyclic", 3)
    assert g.table[1][2] == 0


def test_cyclic_5_is_a_group():
    g = build_builtin("cyclic", 5)
    assert g.quasigroup and g.associative and g.identity == 0


def test_left_zero_not_quasigroup():
    g = build_builtin("left-zero", 2)
    assert g.associative
    assert not g.quasigroup
    assert g.identity is None


def test_right_zero_table():
    g = build_builtin("right-zero", 3)
    assert all(g.table[i][j] == j for i in range(3) for j in range(3))


def test_klein_4_group():
    g = build_builtin("klein-4", 4)
    assert g.is_group() and g.commutative
    assert g.table[1][2] == 3


def test_symmetric_3():
    g = build_builtin("symmetric-3", 6)
    assert g.is_group()
    assert not g.commutative
    assert g.center() == (0,)
    assert g.names[0] == "e"


def test_builtin_errors():
    with pytest.raises(InputError):
        build_builtin("cyclic", 0)
    with pytest.raises(InputError):
        build_builtin("klein-4", 5)
    with pytest.raises(InputError):
        build_builtin("symmetric-3", 3)
    with pytest.raises(InputError):
        build_builtin("nonsense", 3)
    with pytest.raises(InputError):
        build_builtin("cyclic", 17)


def test_parse_z2_document():
    g = parse_groupoid(Z2_DOC)
    assert g.names == ("e", "a")
    assert g.identity == 0
    assert g.is_group()


def test_parse_yaml_z3():
    g = parse_groupoid(Z3_DOC)
    assert g.associative and g.commutative and g.quasigroup


def test_parse_repeated_row_is_fine_but_not_quasigroup():
    doc = json.dumps({"elements": ["x", "y"],
                      "table": [["x", "x"], ["y", "y"]]})
    g = parse_groupoid(doc)
    assert not g.quasigroup


@pytest.mark.parametrize("doc", [
    "[1, 2, 3]",
    json.dumps({"elements": ["a", "a"], "table": [["a", "a"], ["a", "a"]]}),
    json.dumps({"elements": ["a", "b"], "table": [["a", "b"]]}),
    json.dumps({"elements": ["a", "b"], "table": [["a", "q"], ["b", "a"]]}),
    json.dumps({"elements": ["a", "b"]}),
    "{not yaml: [",
])
def test_parse_errors(doc):
    with pytest.raises(InputError):
        parse_groupoid(doc)


def test_properties_report(z3, s3):
    rep = groupoid_properties(z3)
    assert rep["center"] == ["0", "1", "2"]
    assert rep["identity"] == "0"
    rep = groupoid_properties(s3)
    assert rep["center"] == ["e"]
    rep = groupoid_properties(build_builtin("left-zero", 2))
    assert rep["associative"] and not rep["quasigroup"]


def test_homomorphisms(z2, z3, z6):
    assert is_homomorphism(z6, z3, [x % 3 for x in range(6)])
    assert not is_homomorphism(z3, z3, [(x + 1) % 3 for x in range(3)])
    assert is_homomorphism(z2, z2, [0, 1])
    with pytest.raises(InputError):
        is_homomorphism(z2, z2, [0])
    with pytest.raises(InputError):
        is_homomorphism(z2, z2, [0, 5])


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 4))
    table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    return Groupoid([str(i) for i in range(n)], table)


@given(small_tables())
def test_latin_square_iff_unique_solvability(g):
    # quasigroup flag must agree with brute-force unique solvability of
    # a*x = b and y*a = b
    n = g.n
    solvable = all(
        sum(1 for x in range(n) if g.table[a][x] == b) == 1
        and sum(1 for y in range(n) if g.table[y][a] == b) == 1
        for a in range(n) for b in range(n))
    assert g.quasigroup == solvable


def test_table_entry_out_of_range():
    with pytest.raises(InputError):
        Groupoid(["a", "b"], [[0, 2], [1, 0]])


def test_table_entries_are_integers_not_coerced():
    for bad in (1.5, 1.0, "1", np.float64(1), None):
        with pytest.raises(InputError, match=re.escape(f"table entry {bad!r} is not an integer")):
            Groupoid(["a", "b"], [[0, bad], [1, 0]])
    with pytest.raises(InputError, match="not an integer"):
        Groupoid(["a", "b"], [["0", "1"], ["1", "0"]])
    for one in (1, np.int64(1), np.uint8(1)):
        g = Groupoid(["a", "b"], [[0, one], [one, 0]])
        assert g.table == ((0, 1), (1, 0)) and all(type(v) is int for row in g.table for v in row)


def test_fingerprint_stable(z3):
    assert z3.fingerprint() == build_builtin("cyclic", 3).fingerprint()
    assert z3.fingerprint() != build_builtin("cyclic", 4).fingerprint()


def test_equal_groupoids_hash_once_and_share_cached_tables():
    from gspace.products import _image_table, _preimage_table

    a, b = build_builtin("cyclic", 16), build_builtin("cyclic", 16)
    c = Groupoid([str(i) for i in range(16)],
                 [[(i + j) % 16 for j in range(16)] for i in range(16)], "another name")
    assert a is not b and a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert _preimage_table(a) is _preimage_table(b) is _preimage_table(c)
    assert _image_table(a) is _image_table(b) is _image_table(c)
    assert hash(build_builtin("cyclic", 15)) != hash(a)
