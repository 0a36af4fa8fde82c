import itertools
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

import oracles

import gspace.structure as structure
from gspace import (BudgetExceeded, Groupoid, Hyperspace, InputError, build_builtin,
                    center, center_of_gx, enumerate_all, enumerate_class,
                    find_sections, generate, is_shift_invariant, lambda_view,
                    largest, maximal_linked_families, minimal_ideal,
                    minimal_left_ideals, minimal_right_ideals, orbits,
                    principal, product, right_cancelable_certificate,
                    smallest, special_elements, subset_mask,
                    subsemigroup_view, are_isomorphic)
from gspace import verify
from gspace.classify import class_words
from gspace.groupoids import MAX_VIEW_ELEMENTS
from gspace.hyperspaces import _gather_words, upset_words
from gspace.products import _image_table, left_shift
from gspace.structure import (_BATCH, _LINES, SemigroupView, _first_escape, _invariants,
                              _line_sets, _lookup, _maps, _minimal_ideals, _plan,
                              _preimage_bits, _shift_tables)


def masks(n, *sets):
    return [subset_mask(n, s) for s in sets]


def triangle():
    return generate(3, masks(3, (0, 1), (0, 2), (1, 2)))


def reference_index(g, elements):
    """(u, v) -> index of u o v in `elements` by the reference product, or -1."""
    index = {h.bits: k for k, h in enumerate(elements)}
    return lambda u, v: index.get(product(g, u, v).bits, -1)


def check_cells(g, view, cells):
    lookup, elems = reference_index(g, view.elements), view.elements
    for i, j in cells:
        assert view.table[i, j] == lookup(elems[i], elems[j]), (g.name, i, j)


def _section_view(search, sec):
    view = search.decomposition.view
    return subsemigroup_view(view.groupoid, [view.elements[i] for i in sec])


def check_associativity(view):
    assert view.is_associative() == oracles.naive_is_associative(view.table.tolist())
    check_ideals(view)


def check_ideals(view):
    """On a view that holds the verdict True, whose ideal reports read only
    the kernel's lines: the one-sided reports against `_minimal_ideals` over
    all lines, and the kernel against the descent oracle. Every other view
    reads all lines already."""
    if vars(view).get("_light"):
        t = view.table
        assert minimal_left_ideals(view) == _minimal_ideals(t, 0)
        assert minimal_right_ideals(view) == _minimal_ideals(t, 1)
        assert minimal_ideal(view) == oracles.descent_minimal_ideal(t)


# -- views -------------------------------------------------------------------------

def test_full_g3_view_closed(g3_view):
    assert g3_view.closed and g3_view.size == 18
    assert g3_view.is_associative()


def test_full_view_helper(z2, g2_view):
    # the CLI's `--within all` view: the class census equals the sorted census
    view = subsemigroup_view(z2, class_words(z2, "all"))
    assert view.elements == g2_view.elements
    assert np.array_equal(view.table, g2_view.table)
    assert not view.words.flags.writeable


def test_view_element_cap(z6, census6):
    assert len(upset_words(5)) <= MAX_VIEW_ELEMENTS < len(census6)
    elems = (Hyperspace._raw(6, b) for b in census6[:MAX_VIEW_ELEMENTS + 1].tolist())
    with pytest.raises(InputError, match="at most"):
        subsemigroup_view(z6, elems)
    for words in (census6[:MAX_VIEW_ELEMENTS + 1], census6):
        with pytest.raises(InputError, match=f"at most {MAX_VIEW_ELEMENTS} elements, "
                                             f"got {len(words)}"):
            subsemigroup_view(z6, words)


def test_lambda_z3_view(z3):
    view = lambda_view(z3)
    assert view.closed and view.size == 4
    tri = view.index_of(triangle())
    assert all(view.table[i][tri] == tri for i in range(4))
    assert all(view.table[tri][i] == tri for i in range(4))


def test_two_element_view_closed(z3):
    view = subsemigroup_view(z3, [principal(3, 0), triangle()])
    assert view.closed


def test_escaping_view_reports_witness(z3):
    e, a = principal(3, 0), principal(3, 1)
    view = subsemigroup_view(z3, [e & a, e | a])
    assert not view.closed
    i, j, p = view.escape
    assert product(z3, view.elements[i], view.elements[j]) == p
    with pytest.raises(InputError):
        special_elements(view)


def test_view_rejects_duplicates(z2, z3):
    with pytest.raises(InputError):
        subsemigroup_view(z3, [principal(3, 0), principal(3, 0)])
    words = class_words(z3, "all")
    cases = [(z3, "distinct", words[[0, 5, 0]]),
             (z3, "hyperspaces on 3", np.array([words[0], 0b10000010], dtype=np.uint64)),
             (z3, "hyperspaces on 3", np.array([principal(2, 0).bits], dtype=np.uint64)),
             (z3, "hyperspaces on 3", np.array([principal(4, 0).bits], dtype=np.uint64)),
             (z2, "hyperspaces on 2", words[:2]),
             (z3, "1-D uint64", words.astype(np.int64)),
             (z3, "1-D uint64", words.astype(float)),
             (z3, "1-D uint64", words[None]),
             (z3, "at least one", words[:0])]
    for g, message, bad in cases:
        # a hand-built view over the same words refuses them too
        table = np.zeros((bad.shape[-1],) * 2, dtype=np.int32)
        for build in (lambda: subsemigroup_view(g, bad),
                      lambda: SemigroupView(g, bad, table)):
            with pytest.raises(InputError, match=message):
                build()


def test_hand_built_view_checks_its_table(z2):
    words = np.array([principal(2, 0).bits, principal(2, 1).bits], dtype=np.uint64)
    cases = [("2-D square", ((0, 1, 2),), None),
             ("2-D square", (0, 1), None),
             ("2-D square", (((0,),),), None),
             ("2-D square", 0, None),
             ("entries in", ((0, 5), (1, 0)), None),
             ("entries in", ((0, -2), (1, 0)), None),
             ("at least one", np.empty((0, 0), dtype=int), None),
             ("one entry per element", ((0, 1), (1, 0)), words[:1]),
             # not cast: floats, strings and bools are no indices, ragged rows no table
             ("2-D square", ((0, 1.5), (1, 0)), None),
             ("2-D square", (("0", "1"), ("1", "0")), None),
             ("2-D square", ((True, False), (False, True)), None),
             ("2-D square", ((0, 1), (1,)), None),
             # range checked before the int16 cast, which would wrap 2^15 to
             # -2^15 and the others to 0
             ("entries in", np.array([[0, 2 ** 15], [1, 0]]), None),
             ("entries in", np.array([[0, 2 ** 16], [1, 0]]), None),
             ("entries in", np.array([[0, 2 ** 32], [1, 0]]), None),
             ("entries in", np.array([[0, 2 ** 63], [1, 0]], dtype=np.uint64), None)]
    for message, table, w in cases:
        with pytest.raises(InputError, match=message):
            SemigroupView(z2, w, table)
    view = SemigroupView(z2, words, ((0, -1), (1, 0)))
    assert not view.closed and view.table.tolist() == [[0, -1], [1, 0]]
    assert view.table.dtype == np.int16 and not view.table.flags.writeable
    # without words, an element is labelled by its index
    assert [SemigroupView(z2, None, ((0, 1), (1, 0))).label(i) for i in (0, 1)] == ["0", "1"]


def test_hand_built_view_size_cap(z2):
    assert MAX_VIEW_ELEMENTS <= np.iinfo(structure._INDEX).max
    # zero strides: no memory behind either table; the cap reads the shape
    for m in (MAX_VIEW_ELEMENTS + 1, 2 ** 15, 2 ** 16):
        with pytest.raises(InputError, match=f"at most {MAX_VIEW_ELEMENTS} elements, got {m}"):
            SemigroupView(z2, None, np.broadcast_to(np.int16(0), (m, m)))
    edge = SemigroupView(z2, None, np.broadcast_to(np.int16(0), (MAX_VIEW_ELEMENTS,) * 2))
    assert edge.size == MAX_VIEW_ELEMENTS and edge.closed


def test_hand_built_view_freezes_int16_and_copies_other_dtypes(z4):
    view = subsemigroup_view(z4, class_words(z4, "all"))
    for dtype in (np.int16, np.int32, np.int64, np.uint16):
        words = view.words.copy()
        given = view.table.astype(dtype)
        built = SemigroupView(z4, words, given)
        # an int16 table is kept and frozen; any other dtype is copied, the
        # caller's array left writeable
        assert (built.table is given) == (dtype == np.int16), dtype
        assert given.flags.writeable == (dtype != np.int16), dtype
        assert built.table.dtype == np.int16 and not built.table.flags.writeable
        assert np.array_equal(built.table, given)
        # uint64 words are always kept and frozen
        assert built.words is words and not words.flags.writeable


def test_index_of_follows_caller_order(z3, g3_all):
    view = subsemigroup_view(z3, g3_all[::-1])
    assert [view.index_of(h) for h in g3_all] == list(range(17, -1, -1))
    assert view.index_of(g3_all[0]) == view.words.tolist().index(g3_all[0].bits)
    small = subsemigroup_view(z3, [principal(3, 0)])
    with pytest.raises(InputError, match="not an element"):
        small.index_of(principal(3, 1))
    with pytest.raises(InputError, match="not an element"):
        small.index_of(principal(2, 0))
    quotient = orbits(z3, g3_all).quotient
    with pytest.raises(InputError, match="quotient"):
        quotient.index_of(principal(3, 0))


BUILDER_CASES = [("cyclic", 1), ("cyclic", 2), ("cyclic", 3), ("left-zero", 2),
                 ("left-zero", 3), ("right-zero", 2), ("right-zero", 3),
                 ("magma3", 3), ("cyclic", 4), ("klein-4", 4),
                 ("lambda-cyclic", 4), ("lambda-cyclic", 5)]


@pytest.mark.parametrize("kind,n", BUILDER_CASES)
def test_table_matches_product_exhaustively(kind, n, magma3):
    if kind == "magma3":
        g, elems = magma3, sorted(enumerate_all(3))
    elif kind == "lambda-cyclic":
        g, elems = build_builtin("cyclic", n), maximal_linked_families(n)
    else:
        g, elems = build_builtin(kind, n), sorted(enumerate_all(n))
    view = subsemigroup_view(g, elems)
    assert isinstance(view.table, np.ndarray) and view.table.ndim == 2
    assert view.closed and view.escape is None
    check_cells(g, view, itertools.product(range(view.size), repeat=2))
    check_associativity(view)


def test_escape_witness_is_row_major_first(z6):
    elems = maximal_linked_families(6)[:200]
    view = subsemigroup_view(z6, elems)
    lookup = reference_index(z6, elems)
    want = next((i, j) for i in range(200) for j in range(200)
                if lookup(elems[i], elems[j]) < 0)
    assert want == (1, 2)
    i, j, p = view.escape
    assert (i, j) == want
    assert p == product(z6, elems[i], elems[j])
    assert not view.closed and view.table[i, j] == -1
    assert (view.table[:i] >= 0).all() and (view.table[i, :j] >= 0).all()


def test_first_escape_scans_blocks_of_rows(z4, z5, z6):
    # the row-major first -1 of unclosed class views, against one flat scan
    # of the whole table; on the last view it lies past the first block of rows
    views = [subsemigroup_view(z6, maximal_linked_families(6)[:200])]
    for g in (z4, z5):
        lam = class_words(g, "maxlinked", 2)
        views.append(subsemigroup_view(g, np.concatenate(
            [lam, np.setdiff1d(class_words(g, "filters", None), lam)])))
    # λ(Z5) and the right zeros of G(Z5) are closed; a filter added after
    # them escapes first in the rows that do not take it into the view
    lam = class_words(z5, "maxlinked", 2)
    core = np.concatenate([lam, np.setdiff1d(class_words(z5, "shiftinv", None), lam)])
    extra = np.setdiff1d(class_words(z5, "filters", None), core)[:1]
    t = subsemigroup_view(z5, np.concatenate([core, extra])).table
    full = (t[:-1] >= 0).all(axis=1)
    views.append(subsemigroup_view(z5, np.concatenate([core[full], core[~full], extra])))
    for view in views:
        assert not view.closed
        for table in (view.table, shift_tables(view.groupoid, view.words)[0]):
            bad = np.flatnonzero(table < 0)
            want = divmod(int(bad[0]), table.shape[1]) if bad.size else None
            assert _first_escape(table) == want
        assert view.escape[:2] == _first_escape(view.table)
    assert _first_escape(views[-1].table)[0] == full.sum() > _LINES
    assert _first_escape(lambda_view(z5).table) is None


def test_orbit_shift_table_matches_product(z3, z5, z6, g3_all, monkeypatch):
    for g, elems in ((z3, g3_all), (z5, maximal_linked_families(5))):
        points = [principal(g.n, h) for h in range(g.n)]
        words = np.array([h.bits for h in elems], dtype=np.uint64)
        dec = orbits(g, words)
        assert "elements" not in dec.view.__dict__
        shift = shift_tables(g, words)[0]
        assert np.array_equal(shift, oracles.gather_table(g, words, [p.bits for p in points]))
        lookup = reference_index(g, elems)
        for i, u in enumerate(elems):
            for h, ph in enumerate(points):
                k = lookup(u, ph)
                assert shift[i, h] == k >= 0
                assert dec.orbit_of[k] == dec.orbit_of[i]
        assert [set(shift[o[0]].tolist()) for o in dec.orbits] == [set(o) for o in dec.orbits]
        assert list(dec.representatives) == sorted(o[0] for o in dec.orbits)
    # λ(Z6): the decomposition builds no Hyperspace
    words = class_words(z6, "maxlinked", 2)
    raw, built = Hyperspace._raw.__func__, []
    monkeypatch.setattr(Hyperspace, "_raw", classmethod(
        lambda cls, n, bits: built.append(bits) or raw(cls, n, bits)))
    assert len(orbits(z6, words).orbits) == 447 and built == []


TABLE_CASES = [("lambda", "cyclic", 6), ("lambda", "symmetric-3", 6), ("lambda", "cyclic", 5),
               ("G", "cyclic", 4), ("G", "klein-4", 4), ("G", "left-zero", 4),
               ("G", "right-zero", 4), ("lambda200", "cyclic", 6),
               ("principal0", "cyclic", 3), ("G", "magma3", 3)]


def count_gathers(monkeypatch) -> list[int]:
    """The words each `_gather_words` call of the builder gathers: gathers x words."""
    gathered = []
    monkeypatch.setattr("gspace.structure._gather_words",
                        lambda ws, index: gathered.append(len(index) * len(ws))
                        or _gather_words(ws, index))
    return gathered


@pytest.mark.parametrize("kind,name,n", TABLE_CASES)
def test_compressed_table_matches_gather(kind, name, n, magma3, monkeypatch):
    g = magma3 if name == "magma3" else build_builtin(name, n)
    words = {"G": lambda: upset_words(n),
             "lambda": lambda: class_words(g, "maxlinked", 2),
             "lambda200": lambda: class_words(g, "maxlinked", 2)[:200],
             "principal0": lambda: np.array([principal(n, 0).bits], dtype=np.uint64)}[kind]()
    gathered = count_gathers(monkeypatch)
    view = subsemigroup_view(g, words)
    built = sum(gathered)
    assert np.array_equal(view.table, oracles.gather_table(g, words, words))
    assert view.table.flags.c_contiguous
    # cells are derived, and fewer words gathered than every cell (and both
    # shift tables over an associative carrier), only on a closed table over
    # elements closed under point shifts on both sides
    m = len(words)
    derivable = g.associative and view.closed and min(
        s.min() for s in shift_tables(g, words)) >= 0
    assert (built < 2 * n * m * g.associative + m * m) == derivable
    if kind == "lambda200":
        assert view.escape[:2] == (1, 2)
    if kind == "principal0":     # product-closed, not closed under shifts
        assert view.closed and not derivable
        with pytest.raises(InputError, match="right shifts"):
            orbits(g, words)


@pytest.mark.parametrize("kind,name,n", [("lambda", "cyclic", 6), ("lambda200", "cyclic", 6),
                                         ("G", "magma3", 3)])
def test_table_over_permuted_words(kind, name, n, magma3):
    # every other table case passes its words in ascending order; here
    # element i is words[p[i]], so cell (i, j) is the old cell (p[i], p[j])
    # renamed by the inverse of p, and an escape stays -1
    g = magma3 if name == "magma3" else build_builtin(name, n)
    words = {"G": lambda: upset_words(n),
             "lambda": lambda: class_words(g, "maxlinked", 2),
             "lambda200": lambda: class_words(g, "maxlinked", 2)[:200]}[kind]()
    table = subsemigroup_view(g, words).table
    p = np.random.default_rng(len(words)).permutation(len(words))
    inv = np.append(np.argsort(p), -1)
    assert np.array_equal(subsemigroup_view(g, words[p]).table, inv[table[p][:, p]])
    assert (table < 0).any() == (kind == "lambda200")


def test_compressed_table_skips_derived_gathers(z3, z6, s3, magma3, monkeypatch):
    words = class_words(z6, "maxlinked", 2)
    m, n = len(words), z6.n
    reps = len(orbits(z6, words).orbits)
    bound = 2 * n * m + reps ** 2     # both shift tables, then reps x reps cells
    assert bound == 231_561
    # unclosed, λ(Z6)'s first 200 words and 300 seeded words of λ(S3), and
    # closed but not closed under point shifts, the Z3 chain: both shift
    # tables, then every cell
    lambda_s3 = class_words(s3, "maxlinked", 2)
    pick = np.random.default_rng(1).choice(len(lambda_s3), size=300, replace=False)
    chain = np.array([h.bits for h in verify._z3_chain(True)], dtype=np.uint64)
    whole = [(z6, words[:200], 42_400), (s3, lambda_s3[pick], 93_600), (z3, chain, 91)]
    gathered = count_gathers(monkeypatch)
    subsemigroup_view(z6, words)
    assert sum(gathered) == bound
    gathered.clear()
    orbits(z6, words)               # reads the build's own shift table
    assert sum(gathered) == bound
    for g, w, count in whole:
        gathered.clear()
        assert subsemigroup_view(g, w).closed == (g is z3)
        assert sum(gathered) == 2 * g.n * len(w) + len(w) ** 2 == count, g.name
    gathered.clear()
    view, shift = structure._build(magma3, upset_words(3))     # not associative
    assert sum(gathered) == view.size ** 2 == 18 * 18
    assert shift is None


def test_full_g5_view_matches_gather_on_sampled_columns(z5):
    words = upset_words(5)
    tracemalloc.start()
    try:
        view = subsemigroup_view(z5, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the build holds the table and blocks of rows: no second table-sized
    # array, and no copy of all representative rows (23 MB on G(Z5))
    assert peak <= view.table.nbytes + 16 * 2 ** 20
    assert view.size == 7579 and view.closed and view.table.flags.c_contiguous
    cols = np.random.default_rng(5).choice(view.size, size=64, replace=False)
    assert np.array_equal(view.table[:, cols], oracles.gather_table(z5, words, words[cols]))
    points = [principal(5, h).bits for h in range(5)]
    assert np.array_equal(shift_tables(z5, words)[0], oracles.gather_table(z5, words, points))


@pytest.mark.parametrize("name,n", [("cyclic", 5), ("left-zero", 4), ("right-zero", 4)])
@pytest.mark.parametrize("size", [_BATCH - 1, _BATCH, _BATCH + 1,
                                  _LINES - 1, _LINES, _LINES + 1, 2 * _LINES + 44])
def test_table_across_batch_and_line_boundaries_matches_gather(name, n, size):
    # census prefixes, cut at and around the batch and block sizes;
    # G(4) has 166 elements, so the last prefix of a band carrier is all of it
    g = build_builtin(name, n)
    words = upset_words(n)[:size]
    view = subsemigroup_view(g, words)
    assert view.table.flags.c_contiguous
    assert np.array_equal(view.table, oracles.gather_table(g, words, words))


def test_escaped_representative_with_complete_shifted_column(z4):
    # words[0] o <1> = words[1]; column 0 escapes, column 1 does not, so
    # column 1 is gathered rather than derived from column 0 (as is every
    # column of a table with an escape)
    words = np.array([generate(4, masks(4, *sets)).bits for sets in (
        [(0, 1)], [(1, 2)], [(0, 2, 3)], [(1, 2, 3)], [(0, 1, 2, 3)])], dtype=np.uint64)
    want = oracles.gather_table(z4, words, words)
    assert oracles.gather_table(z4, words, [principal(4, 1).bits])[0, 0] == 1
    assert want[:, 0].min() < 0 <= want[:, 1].min()
    view = subsemigroup_view(z4, words)
    assert np.array_equal(view.table, want) and view.table.flags.c_contiguous


def shift_tables(g, words):
    return _shift_tables(_preimage_bits(g), words, _lookup(words))


@pytest.mark.parametrize("kind", ["one", "G3", "lambda_z6", "G5", "G5_half"])
def test_lookup_matches_dict(kind, z3, z5, z6):
    census = upset_words(5)
    half = np.random.default_rng(5).permutation(census)[:len(census) // 2]
    g, words = {"one": lambda: (z5, census[7:8]),
                "G3": lambda: (z3, upset_words(3)),
                "lambda_z6": lambda: (z6, class_words(z6, "maxlinked", 2)),
                "G5": lambda: (z5, census),
                # absent hyperspaces queried at scale, words not in sorted order
                "G5_half": lambda: (z5, half)}[kind]()
    m = len(words)
    index = {w: i for i, w in enumerate(words.tolist())}
    rng = np.random.default_rng(m)
    flipped = words[rng.integers(m, size=500)] ^ (
        np.uint64(1) << rng.integers(64, size=500, dtype=np.uint64))
    queries = np.concatenate([np.array([0, 2 ** 64 - 1], dtype=np.uint64),
                              words, census, flipped])
    queries = queries[:len(queries) & ~1]      # even, for the 2-D shapes
    gathered = _gather_words(words, structure._transforms(_preimage_bits(g), words[:_BATCH]))
    assert gathered.flags.f_contiguous     # the builder's transposed view
    lookup = _lookup(words)
    for q in (queries, queries.reshape(2, -1), queries.reshape(2, -1).T, gathered):
        got = lookup(q)
        assert got.dtype == structure._INDEX and got.shape == q.shape
        want = [index.get(w, -1) for w in q.ravel().tolist()]
        assert got.ravel().tolist() == want
    # in the three large sets some words share a slot, so members reach the
    # binary search over the misses too
    slots = structure._slot(words, (8 * m - 1).bit_length())
    assert (len(np.unique(slots)) < m) == (m > 18)


@pytest.mark.parametrize("name,size", [("cyclic", None), ("symmetric-3", None),
                                       ("symmetric-3", 300)])
def test_shift_tables_match_left_shift_and_product(name, size):
    g = build_builtin(name, 6)
    words = class_words(g, "maxlinked", 2)[:size]
    shift, lshift = shift_tables(g, words)
    index = {b: k for k, b in enumerate(words.tolist())}
    points = [principal(6, x) for x in range(6)]
    for i in np.random.default_rng(6).choice(len(words), size=40, replace=False).tolist():
        f = Hyperspace._raw(6, int(words[i]))
        for x in range(6):
            assert lshift[i, x] == index.get(left_shift(g, x, f).bits, -1)
            assert shift[i, x] == index.get(product(g, f, points[x]).bits, -1)
    assert np.array_equal(shift, oracles.gather_table(g, words, [p.bits for p in points]))
    if name == "symmetric-3":       # not commutative: the two sides differ
        assert not np.array_equal(lshift, shift)
    if size is not None:            # a prefix, not closed under left shifts
        assert (lshift < 0).any()


@pytest.mark.parametrize("name", ["left-zero", "right-zero"])
def test_band_left_shifts(name):
    # left zero: <x> o F = <x>, so the point rows are the first row's kids;
    # right zero: <x> o F = F, so no row is derived (TABLE_CASES holds both
    # tables equal to the full gather)
    g = build_builtin(name, 4)
    words = upset_words(4)
    _, lshift = shift_tables(g, words)
    rows, kid, parent, _ = _plan(lshift)
    if name == "left-zero":
        point_rows = [int(np.flatnonzero(words == principal(4, x).bits)[0]) for x in range(4)]
        assert (lshift == point_rows).all()
        assert set(kid.tolist()) == set(point_rows) - {0} and (parent == 0).all()
    else:
        assert (lshift == np.arange(len(words))[:, None]).all()
        assert len(kid) == 0 and len(rows) == len(words)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unclosed_lambda_s3_subsets_match_gather(s3, seed):
    words = class_words(s3, "maxlinked", 2)
    rng = np.random.default_rng(seed)
    for pick in (rng.choice(len(words), size=300, replace=False),
                 np.sort(rng.choice(len(words), size=300, replace=False)),
                 np.arange(100 + 100 * seed)):
        sub = words[pick]
        view = subsemigroup_view(s3, sub)
        want = oracles.gather_table(s3, sub, sub)
        assert np.array_equal(view.table, want)
        bad = np.argwhere(want < 0)
        assert not view.closed and view.escape[:2] == tuple(bad[0].tolist())


def test_escaped_left_representative_with_existing_kid_products(z3):
    # words[1] = <1> o words[0], and words[0] o words[2] escapes while
    # words[1] o words[2] = <1> o (words[0] o words[2]) = words[3] exists;
    # that cell cannot be derived from its parent, so it is gathered (as is
    # every cell of a table with an escape)
    words = np.array([generate(3, masks(3, *sets)).bits for sets in (
        [(0,), (2,)], [(0,), (1,)], [(0, 1)], [(0, 1), (1, 2)])], dtype=np.uint64)
    _, lshift = shift_tables(z3, words)
    rows, kid, parent, xs = _plan(lshift)
    assert 0 in rows.tolist() and (1, 0, 1) in zip(kid.tolist(), parent.tolist(), xs.tolist())
    want = oracles.gather_table(z3, words, words)
    assert want[0, 2] == -1 and want[1, 2] == 3
    view = subsemigroup_view(z3, words)
    assert np.array_equal(view.table, want) and view.escape[:2] == (0, 0)


def test_escape_only_in_a_derived_column(z3):
    # column 1, <0> o <1>, is the complete column 0 shifted by <1>, but the
    # shift table holds a -1 (<1> o <1> = <2>), the table's only one: every
    # cell is gathered
    view = subsemigroup_view(z3, [principal(3, 0), principal(3, 1)])
    assert view.table.tolist() == [[0, 1], [1, -1]]
    assert not view.closed and view.escape == (1, 1, principal(3, 2))


def check_plan(shift):
    """_plan equals the walk of oracles.naive_plan, kids sorted; every kid is
    its parent shifted by the first such point, and every parent is a
    representative."""
    reps, kid, parent, h = _plan(shift)
    want_reps, *want = oracles.naive_plan(shift)
    assert np.array_equal(reps, want_reps)
    assert np.array_equal(np.stack([kid, parent, h])[:, np.argsort(kid)],
                          np.stack(want)[:, np.argsort(want[0])])
    assert np.array_equal(np.sort(np.concatenate([reps, kid])), np.arange(len(shift)))
    assert np.array_equal(shift[parent, h], kid) and np.isin(parent, reps).all()
    assert all((shift[p, :x] != k).all() for k, p, x in zip(kid.tolist(), parent.tolist(), h.tolist()))


def _class_tokens(n):
    if n == 6:      # the other n = 6 censuses take a second or more each
        return [("filters", None), ("ultrafilters", None), ("maxlinked", 2)]
    return ([("all", None), ("filters", None), ("ultrafilters", None), ("centered", None),
             ("shiftinv", None)] + [(t, k) for t in ("linked", "maxlinked") for k in range(2, n + 1)])


PLAN_CARRIERS = ([(name, n) for name in ("cyclic", "left-zero", "right-zero") for n in range(1, 7)]
                 + [("klein-4", 4), ("symmetric-3", 6)])


@pytest.mark.parametrize("name,n", PLAN_CARRIERS)
def test_plan_matches_walk_on_class_views(name, n):
    g = build_builtin(name, n)
    rng = np.random.default_rng(n)
    for token, k in _class_tokens(n):
        words = class_words(g, token, k)
        if not 0 < len(words) <= MAX_VIEW_ELEMENTS:
            continue
        size = min(len(words), 60)
        for w in (words, words[rng.permutation(len(words))],
                  np.sort(rng.choice(words, size=size, replace=False)),
                  rng.choice(words, size=size, replace=False)):
            for shift in shift_tables(g, w):
                check_plan(shift)


NONGROUP_OPS = {"max": lambda i, j, n: max(i, j), "min": lambda i, j, n: min(i, j),
                "truncated-add": lambda i, j, n: min(i + j, n - 1),
                "mul": lambda i, j, n: i * j % n,
                "z2-left-zero": lambda i, j, n: i - i % 2 + (i + j) % 2,   # i is (i % 2, i // 2)
                "sub": lambda i, j, n: (i - j) % n, "2x+y": lambda i, j, n: (2 * i + j) % n}
NONGROUP_CARRIERS = ([(name, n) for n in range(2, 6) for name in ("max", "min", "truncated-add", "mul")]
                     + [("z2-left-zero", 2), ("z2-left-zero", 4)])
MAGMA_CARRIERS = [(name, n) for name in ("sub", "2x+y") for n in (4, 5)]   # not associative


@pytest.mark.parametrize("name,n", NONGROUP_CARRIERS)
def test_views_over_nongroup_semigroup_carriers_match_gather(name, n):
    # associative carriers whose point shifts are neither permutations nor
    # constant (but Z2 x left-zero(1), which is Z2), so an index can be
    # reached from several smaller ones and the orbits overlap
    g = carrier(name, n)
    assert g.associative
    words = upset_words(n)
    rng = np.random.default_rng(len(words) + n)
    picks = [np.arange(len(words))] if n <= 4 else []
    for _ in range(8):
        pick = rng.choice(len(words), size=int(rng.integers(1, min(len(words), 200) + 1)),
                          replace=False)
        picks += [np.sort(pick), pick]
    for pick in picks:
        sub = words[pick]
        view = subsemigroup_view(g, sub)
        want = oracles.gather_table(g, sub, sub)
        assert np.array_equal(view.table, want)
        bad = np.argwhere(want < 0)
        assert view.closed == (not len(bad))
        if len(bad):
            i, j, p = view.escape
            assert (i, j) == tuple(bad[0].tolist())
            assert p == product(g, view.elements[i], view.elements[j])
        else:
            assert view.escape is None
        for shift in shift_tables(g, sub):
            check_plan(shift)


def test_view_refuses_items_that_are_not_hyperspaces(z3):
    for bad in ([1, 2], [principal(3, 0), 5], "abc", None, 5):
        for build in (subsemigroup_view, orbits, find_sections):
            with pytest.raises(InputError, match="must be Hyperspaces"):
                build(z3, bad)


def test_view_carrier_cap():
    g7 = build_builtin("cyclic", 7)
    with pytest.raises(InputError):
        subsemigroup_view(g7, [principal(7, 0)])


def test_associativity_matches_oracle_on_built_views(z2, z3, g2_all, g3_all, light_paths):
    # λ(Z3) and the sections are built over a group: associative with no
    # Light's test; quotients and hand-built tables take the full test
    views = [lambda_view(z3)]
    for g, elems in ((z2, g2_all), (z3, g3_all)):
        search = find_sections(g, elems)
        views.append(search.decomposition.quotient)
        views += [_section_view(search, sec) for sec in search.sections]
    g = build_builtin("cyclic", 2)
    views += [SemigroupView(g, None, table)
              for table in (((0, 1), (1, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 0)),
                            ((1, 1), (0, 0)))]
    for view in views:
        light_paths.clear()
        check_associativity(view)
        assert light_paths == ([] if view.words is not None else [view.size])


@pytest.fixture
def light_paths(monkeypatch):
    """The table size of each Light's test that is_associative runs."""
    seen, light = [], structure._light_holds
    monkeypatch.setattr(structure, "_light_holds",
                        lambda t, gens: seen.append(len(t)) or light(t, gens))
    return seen


@pytest.fixture
def lines_read(monkeypatch):
    """The number of lines each `_line_sets` call reads."""
    seen, line_sets = [], structure._line_sets

    def counted(*args):
        sets = line_sets(*args)
        seen.append(len(sets))
        return sets
    monkeypatch.setattr(structure, "_line_sets", counted)
    return seen


@pytest.mark.parametrize("name,n,token", [("cyclic", 4, "all"), ("cyclic", 5, "maxlinked"),
                                          ("cyclic", 6, "maxlinked")])
def test_built_views_are_associative_by_the_theorem(name, n, token, monkeypatch, light_paths):
    # G(Z4), λ(Z5) and λ(Z6): G(X) is a semigroup over a semigroup X, so the
    # verdict gathers no word, runs no Light's test and builds no generators
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    gathered = []
    monkeypatch.setattr("gspace.structure._gather_words",
                        lambda ws, index: gathered.append(len(index)) or _gather_words(ws, index))
    assert view.is_associative() and not gathered and light_paths == []
    assert "generators" not in view.__dict__


@pytest.mark.parametrize("name,n,token", [("cyclic", 4, "all"), ("klein-4", 4, "all"),
                                          ("cyclic", 5, "maxlinked")])
def test_hand_built_copies_take_the_full_light_test(name, n, token, light_paths):
    # the same words and table, built by hand: nothing is taken on trust
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    copy = SemigroupView(g, view.words, view.table)
    assert copy.is_associative() and light_paths == [view.size]


def check_generators(view):
    """The generators are distinct, hold every element that is no product,
    and generate the view."""
    t, gens = view.table, view.generators
    assert not gens.flags.writeable and len(set(gens.tolist())) == len(gens)
    assert set(range(view.size)) - set(t.ravel().tolist()) <= set(gens.tolist())
    inside = set(gens.tolist())
    while grown := {int(t[a, b]) for a in inside for b in inside} - inside:
        inside |= grown
    assert inside == set(range(view.size))


# the greedy generating sets: the frontier order does not change them
PINNED_GENERATORS = {
    ("cyclic", 3, "all"): [4, 7, 1, 3, 10, 12],
    ("cyclic", 4, "all"): [18, 32, 12, 16, 17, 52, 57, 77, 4, 15, 68, 82, 46, 7, 113],
    ("klein-4", 4, "all"): [18, 32, 88, 17, 52, 12, 15, 16, 57, 68, 99, 46, 1, 146, 4, 7, 13,
                            82, 113, 127],
    ("cyclic", 5, "maxlinked"): [0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 14, 15, 18],
    ("cyclic", 6, "maxlinked"): [
        0, 1, 3, 4, 5, 6, 7, 32, 39, 44, 45, 57, 58, 59, 111, 132, 142, 2, 8, 9, 11, 12, 15, 16,
        19, 20, 38, 53, 54, 56, 63, 64, 65, 82, 83, 125, 129, 131, 134, 135, 136, 158, 163, 166,
        10, 13, 14, 188, 191, 279, 306, 40, 43, 50, 107, 139, 140, 30, 205, 211, 220, 239, 261,
        262, 269, 275, 291, 302, 192, 89, 117, 255, 280],
}


@pytest.mark.parametrize("name,n,token", list(PINNED_GENERATORS))
def test_generators_are_pinned(name, n, token):
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    assert view.generators.tolist() == PINNED_GENERATORS[name, n, token]


def carrier(name, n, magma3=None):
    """A builtin, magma3, or a NONGROUP_OPS carrier on n points."""
    if name == "magma3":
        return magma3
    if name in NONGROUP_OPS:
        op = NONGROUP_OPS[name]
        return Groupoid(list(range(n)), [[op(i, j, n) for j in range(n)] for i in range(n)],
                        f"{name}:{n}")
    return build_builtin(name, n)


VERDICT_CARRIERS = ([(name, n) for name in ("cyclic", "left-zero", "right-zero")
                     for n in range(1, 5)] + [("klein-4", 4), ("magma3", 3)]
                    + NONGROUP_CARRIERS)


@pytest.mark.parametrize("name,n", VERDICT_CARRIERS)
def test_associativity_matches_oracle_on_class_views(name, n, magma3, light_paths):
    # every closed class view of at most 200 elements, and its orbit quotient;
    # a view built over an associative carrier runs no Light's test (nor
    # builds generators), and check_associativity holds its verdict True
    # against the m^3 oracle; a magma3 view and a quotient run one full test
    g = carrier(name, n, magma3)
    closed = 0
    for token, k in _class_tokens(n):
        words = class_words(g, token, k)
        if not 0 < len(words) <= 200:
            continue
        view = subsemigroup_view(g, words)
        if not view.closed:
            continue
        closed += 1
        light_paths.clear()
        check_associativity(view)
        if g.associative:
            assert light_paths == [] and "generators" not in view.__dict__
            if g.is_group() and min(s.min() for s in shift_tables(g, words)) >= 0:
                quotient = orbits(g, words).quotient
                check_associativity(quotient)
                assert light_paths == [quotient.size]
        else:
            assert light_paths == [view.size]
        check_generators(view)
    assert closed


def one_cell_changes(view, rng, count):
    """Views over the same words whose tables each differ from the view's in
    one cell: `count` at representative cells (a left-representative row and
    a right-representative column), then `count` at derived cells."""
    size = view.size
    shift, lshift = shift_tables(view.groupoid, view.words)
    rows, cols = _plan(lshift)[0], _plan(shift)[0]
    rep = np.isin(np.arange(size), rows)[:, None] & np.isin(np.arange(size), cols)
    cells = [(int(rng.choice(rows)), int(rng.choice(cols))) for _ in range(count)]
    cells += [divmod(int(c), size) for c in rng.choice(np.flatnonzero(~rep.ravel()),
                                                       size=count, replace=False)]
    assert len(cols) < size and not rep[cells[-1]]
    for i, j in cells:
        table = view.table.copy()
        table[i, j] = (table[i, j] + rng.integers(1, size)) % size
        yield SemigroupView(view.groupoid, view.words, table)


@pytest.mark.parametrize("name,n,token", [("cyclic", 4, "all"), ("klein-4", 4, "all"),
                                          ("cyclic", 5, "maxlinked")])
def test_associativity_rejects_one_cell_perturbations(name, n, token):
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    assert view.is_associative()
    for seed in range(3):
        for changed in one_cell_changes(view, np.random.default_rng([n, seed]), 3):
            assert changed.is_associative() == oracles.naive_is_associative(changed.table)


def orbit_values(cell, v, shift, lshift):
    """The entries that v at `cell` forces through the point identities on
    the cells its shifts reach, or None on a conflict."""
    got, todo = {cell: v}, [cell]
    while todo:
        x, y = todo.pop()
        w = got[x, y]
        for nxt, u in [*(((x, s), shift[w][h]) for h, s in enumerate(shift[y])),
                       *(((p, y), lshift[w][q]) for q, p in enumerate(lshift[x]))]:
            if nxt not in got:
                got[nxt] = u
                todo.append(nxt)
            elif got[nxt] != u:
                return None
    return got


def equivariant_table(view, rng):
    """A random table over a shift-closed view of a group carrier on which
    the point identities hold: each orbit of cells takes, at its first cell,
    the first value in a random order that forces no conflict (the view's
    own entry forces none)."""
    shift, lshift = (s.tolist() for s in shift_tables(view.groupoid, view.words))
    table = np.full((view.size, view.size), -1)
    for cell in itertools.product(range(view.size), repeat=2):
        if table[cell] < 0:
            forced = (orbit_values(cell, v, shift, lshift)
                      for v in rng.permutation(view.size).tolist())
            for c, w in next(filter(None, forced)).items():
                table[c] = w
    return table


@pytest.mark.parametrize("name,n,token", [("cyclic", 2, "all"), ("cyclic", 3, "all"),
                                          ("klein-4", 4, "all"), ("cyclic", 5, "maxlinked")])
def test_full_light_test_on_equivariant_tables(name, n, token, light_paths):
    # random tables on which the point identities x·s_h(y) = s_h(x·y) and
    # l_p(x)·y = l_p(x·y) hold, mostly not associative, over a view's words:
    # the full Light's test must get the m^3 verdict
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    verdicts = []
    for seed in range(6):
        table = equivariant_table(view, np.random.default_rng([n, seed]))
        light_paths.clear()
        built = SemigroupView(g, view.words, table)
        verdicts.append(built.is_associative())
        assert verdicts[-1] == oracles.naive_is_associative(table)
        assert light_paths == [view.size]
    assert not all(verdicts)


def test_associativity_fallback_on_failed_identities(z3, g3_all, light_paths):
    # the left-zero table t[i, j] = i over G(Z3)'s words, whose shift tables
    # have no -1, is associative, but x·s_h(y) = x is not s_h(x): Light's
    # test runs on every cell; so it does on a view without words
    words = np.array([h.bits for h in g3_all], dtype=np.uint64)
    m = len(words)
    assert min(s.min() for s in shift_tables(z3, words)) >= 0
    left_zero = np.repeat(np.arange(m)[:, None], m, axis=1)
    for table in (left_zero, left_zero.T):                     # right zero: also a band
        light_paths.clear()
        view = SemigroupView(z3, words, table)
        assert view.is_associative() and light_paths == [m]
        light_paths.clear()
        bare = SemigroupView(z3, None, table)
        assert bare.is_associative() and light_paths == [m]


# -- special elements ------------------------------------------------------------------

def test_g3_special_elements(z3, g3_view):
    spec = special_elements(g3_view)
    elems = g3_view.elements
    e, a, ai = (principal(3, i) for i in range(3))
    assert len(spec.idempotents) == 6
    named = {e, e | (a & ai), e & (a | ai)}
    assert named <= {elems[i] for i in spec.idempotents}
    assert {elems[i] for i in spec.right_zeros} == \
        {smallest(3), triangle(), largest(3)}
    assert spec.left_zeros == ()
    assert spec.zeros == ()
    assert elems[spec.identity] == e
    # left-cancelable elements are exactly the points (quasigroup carrier)
    assert {elems[i] for i in spec.left_cancelable} == {e, a, ai}


def test_g2_special_elements(z2, g2_view):
    spec = special_elements(g2_view)
    elems = g2_view.elements
    assert {elems[i] for i in spec.right_zeros} == {smallest(2), largest(2)}
    assert elems[spec.identity] == principal(2, 0)


# -- shift-invariant core -----------------------------------------------------------------

def test_core_z3(z3):
    e, a, ai = (principal(3, i) for i in range(3))
    assert enumerate_class(z3, "shiftinv") == \
        sorted([smallest(3), triangle(), largest(3)])


def test_core_z2(z2):
    assert enumerate_class(z2, "shiftinv") == sorted([smallest(2), largest(2)])


def test_core_left_zero_empty():
    lz = build_builtin("left-zero", 2)
    core = enumerate_class(lz, "shiftinv")
    assert smallest(2) not in core
    assert core == []


def test_core_right_zero_is_everything():
    rz = build_builtin("right-zero", 2)
    assert enumerate_class(rz, "shiftinv") == sorted(enumerate_all(2))


def test_core_size_limit():
    with pytest.raises(InputError):
        enumerate_class(build_builtin("cyclic", 7), "shiftinv")


def test_core_matches_predicate_filter(z2, z3, z4, magma3):
    # the class rule holds over any groupoid, the non-associative ones too
    for g in (z2, z3, z4, magma3, build_builtin("left-zero", 3),
              build_builtin("right-zero", 3), build_builtin("klein-4", 4),
              *(carrier(name, n) for name, n in NONGROUP_CARRIERS + MAGMA_CARRIERS)):
        fast = enumerate_class(g, "shiftinv")
        slow = [f for f in enumerate_all(g.n) if is_shift_invariant(g, f)]
        assert fast == slow, g.name


def test_core_census_n6(census6):
    # every kept word is shift-invariant, and a seeded sample of the
    # rejected census words is not; each kept F is a right zero, U o F = F
    # for seeded U, so over cyclic:6 the 42 of them are the kernel of G(Z6)
    # (see test_kernel_path_matches_all_lines_on_large_views)
    words = census6
    rng = np.random.default_rng(6)
    us = [Hyperspace._raw(6, w) for w in words[rng.integers(len(words), size=200)].tolist()]
    for name, count in (("cyclic", 42), ("symmetric-3", 74), ("left-zero", 0)):
        g = build_builtin(name, 6)
        core = class_words(g, "shiftinv")
        assert len(core) == count, name
        rejected = np.setdiff1d(words[rng.integers(len(words), size=2000)], core)
        for ws, invariant in ((core, True), (rejected, False)):
            assert all(is_shift_invariant(g, Hyperspace._raw(6, w)) == invariant
                       for w in ws.tolist()), name
        fams = [Hyperspace._raw(6, w) for w in core.tolist()]
        assert all(product(g, u, f) == f for f in fams for u in us), name


def test_right_zeros_are_exactly_shift_invariant(z2, z3, magma3):
    # over the full view, x is a right zero iff the family is shift-invariant
    for g in (z2, z3, magma3, build_builtin("cyclic", 4), build_builtin("klein-4", 4),
              *(carrier(name, n) for name, n in NONGROUP_CARRIERS + MAGMA_CARRIERS
                if n <= 4)):
        elems = sorted(enumerate_all(g.n))
        view = subsemigroup_view(g, elems)
        rz = set(special_elements(view).right_zeros)
        si = {i for i, f in enumerate(elems) if is_shift_invariant(g, f)}
        assert rz == si, g.name


def test_core_lattice_and_transversal_closure(z2, z3):
    for g in (z2, z3):
        core = enumerate_class(g, "shiftinv")
        pool = {f.bits for f in core}
        for u in core:
            assert u.transversal().bits in pool
            for v in core:
                assert (u & v).bits in pool
                assert (u | v).bits in pool
                # rectangular: u o v = v inside the core
                assert product(g, u, v) == v


def test_core_inside_every_principal_right_ideal(z3, g3_view):
    core = enumerate_class(z3, "shiftinv")
    elems = g3_view.elements
    core_idx = {g3_view.index_of(f) for f in core}
    t = g3_view.table
    for x in range(g3_view.size):
        right_ideal = {x} | {t[x][s] for s in range(g3_view.size)}
        assert core_idx <= right_ideal


def test_min_max_membership_equivalence():
    # min in core iff max in core iff a*x = b always solvable
    for g in (build_builtin("cyclic", 2), build_builtin("cyclic", 3),
              build_builtin("left-zero", 2), build_builtin("right-zero", 2),
              build_builtin("left-zero", 3)):
        core = set(enumerate_class(g, "shiftinv"))
        has_min = smallest(g.n) in core
        has_max = largest(g.n) in core
        solvable = all(
            any(g.table[a][x] == b for x in range(g.n))
            for a in range(g.n) for b in range(g.n))
        assert has_min == has_max == solvable, g.name


# -- ideals ---------------------------------------------------------------------------------

def test_minimal_ideal_equals_core(z2, z3, g2_view, g3_view):
    for g, view in ((z2, g2_view), (z3, g3_view)):
        kern = minimal_ideal(view)
        core = enumerate_class(g, "shiftinv")
        assert sorted(view.elements[i] for i in kern) == core


def test_minimal_ideal_lambda_z3(z3):
    view = lambda_view(z3)
    kern = minimal_ideal(view)
    assert [view.elements[i] for i in kern] == [triangle()]


def test_minimal_ideal_equals_intersection_formula(z3, g3_view):
    for view in (g3_view, lambda_view(z3)):
        kern = set(minimal_ideal(view))
        inter = None
        for x in range(view.size):
            ideal = oracles.principal_two_sided_ideal(view.table, x)
            inter = ideal if inter is None else (inter & ideal)
        assert kern == inter


def test_minimal_ideal_needs_associativity(magma3, lines_read):
    # a non-associative view reads all lines for its one-sided ideals, before
    # its verdict and after it
    view = subsemigroup_view(magma3, sorted(enumerate_all(3)))
    assert view.closed
    lefts, rights = minimal_left_ideals(view), minimal_right_ideals(view)
    assert lefts and rights and lines_read == [view.size] * 2
    assert not view.is_associative()
    assert (minimal_left_ideals(view), minimal_right_ideals(view)) == (lefts, rights)
    assert lines_read == [view.size] * 4
    with pytest.raises(InputError):
        minimal_ideal(view)


@pytest.mark.parametrize("name,n,token", [("cyclic", 4, "all"), ("cyclic", 5, "maxlinked")])
def test_ideal_reports_read_kernel_lines_on_a_held_verdict(name, n, token, light_paths,
                                                           lines_read):
    # a built view holds the verdict True and reads the |K| lines of its
    # kernel; a hand-built copy reads all m lines, with no Light's test and no
    # generators, until its own is_associative() has returned True
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    copy = SemigroupView(g, None, view.table)
    m, k = view.size, len(minimal_ideal(view))
    want = [_minimal_ideals(view.table, axis) for axis in (0, 1)]

    def reports(v):
        """Both one-sided reports, and the lines each read."""
        lines_read.clear()
        return [minimal_left_ideals(v), minimal_right_ideals(v)], lines_read[:]
    assert reports(view) == (want, [k, k]) and k < m
    assert reports(copy) == (want, [m, m])
    assert light_paths == [] and "generators" not in vars(view) | vars(copy)
    assert copy.is_associative() and light_paths == [m]
    assert reports(copy) == (want, [k, k])


@pytest.mark.parametrize("name,n,token", [("cyclic", 5, "all"), ("symmetric-3", 6, "maxlinked")])
def test_kernel_path_matches_all_lines_on_large_views(name, n, token, light_paths):
    # all of G(Z5) (7,579 elements) and λ(S3) (2,646): λ(Z6) runs the same
    # checks in check_table_analysis
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    check_ideals(view)
    assert light_paths == [] and "generators" not in vars(view)
    if token == "all":
        # K(G(Z5)) is its set of right zeros, the shiftinv census: right zeros,
        # when there are any, form an ideal (x(zy) = (xz)y = zy) that lies
        # inside every ideal I (z = iz for any i in I), so they are the kernel
        core = np.searchsorted(view.words, class_words(g, "shiftinv")).tolist()
        assert list(minimal_ideal(view)) == list(special_elements(view).right_zeros) == core
        assert len(core) == 9


def test_minimal_left_ideals_lambda_z3(z3):
    view = lambda_view(z3)
    assert minimal_left_ideals(view) == [(view.index_of(triangle()),)]


# -- center ------------------------------------------------------------------------------------

def test_center_g3_is_the_points(z3, g3_view):
    cen = center(g3_view)
    assert sorted(g3_view.elements[i] for i in cen) == \
        sorted(principal(3, x) for x in range(3))


def test_center_g2(z2, g2_view):
    cen = center(g2_view)
    assert sorted(g2_view.elements[i] for i in cen) == \
        sorted(principal(2, x) for x in range(2))


def test_center_of_gx_matches_bruteforce(z2, z3, z4, magma3, g2_view, g3_view):
    klein = build_builtin("klein-4", 4)
    for g, view in ((z2, g2_view), (z3, g3_view),
                    (z4, subsemigroup_view(z4, upset_words(4))),
                    (klein, subsemigroup_view(klein, upset_words(4))),
                    (magma3, subsemigroup_view(magma3, upset_words(3)))):
        brute = sorted(view.elements[i] for i in center(view))
        assert sorted(center_of_gx(g)) == brute, g.name


def test_center_of_gx_n16_without_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("the reference product was called")
    monkeypatch.setattr("gspace.structure.product", refuse)
    g = build_builtin("cyclic", 16)
    assert center_of_gx(g) == [principal(16, x) for x in range(16)]


def test_center_of_gx_symmetric_group(s3):
    cen = center_of_gx(s3)
    assert cen == [principal(6, 0)]


def test_center_of_gx_needs_quasigroup():
    with pytest.raises(InputError):
        center_of_gx(build_builtin("left-zero", 2))


def test_g5_over_semigroups_that_are_not_groups():
    # all of G(5) over multiplication mod 5 (a monoid with a zero)
    view = subsemigroup_view(carrier("mul", 5), upset_words(5))
    special = special_elements(view)
    assert (len(special.idempotents), len(center(view))) == (276, 13)
    assert len(special.left_cancelable) == len(special.right_cancelable) == 4
    # over max:5, G(5) is a semilattice, checked by products without the
    # 5-8 s table build: every element idempotent, and seeded pairs commute
    g = carrier("max", 5)
    fams = [Hyperspace._raw(5, w) for w in upset_words(5).tolist()]
    assert all(product(g, f, f) == f for f in fams)
    rng = random.Random(55)
    for _ in range(2000):
        u, v = rng.choice(fams), rng.choice(fams)
        assert product(g, u, v) == product(g, v, u)


# -- table-level analysis against the set-based oracles ------------------------------------

def check_table_analysis(view):
    t = view.table
    assert vars(special_elements(view)) == oracles.naive_special_elements(t)
    assert center(view) == oracles.naive_center(t)
    assert minimal_left_ideals(view) == oracles.naive_minimal_row_ideals(t.T)
    assert minimal_right_ideals(view) == oracles.naive_minimal_row_ideals(t)
    check_ideals(view)


def table_view(g, table):
    return SemigroupView(groupoid=g, words=None, table=np.asarray(table))


def test_table_analysis_matches_oracles_on_small_views(magma3):
    # every closed class view of at most 200 elements on the carriers the
    # tests use, plus orbit quotients and section views
    carriers = [build_builtin("cyclic", n) for n in range(1, 7)] + [
        build_builtin("klein-4", 4), build_builtin("symmetric-3", 6),
        build_builtin("left-zero", 3), build_builtin("right-zero", 3), magma3]
    views = []
    for g in carriers:
        tokens = [("maxlinked", 2), ("filters", None), ("ultrafilters", None)]
        if g.n <= 5:
            tokens.append(("shiftinv", None))
        if g.n <= 4:
            tokens += [("all", None), ("linked", 2), ("centered", None)]
        for token, k in tokens:
            words = class_words(g, token, k)
            if 0 < len(words) <= 200:
                views.append(subsemigroup_view(g, words))
    z2, z3, z5 = (build_builtin("cyclic", n) for n in (2, 3, 5))
    views += [orbits(z2, upset_words(2)).quotient, orbits(z3, upset_words(3)).quotient,
              orbits(z5, class_words(z5, "maxlinked", 2)).quotient]
    search = find_sections(z3, upset_words(3))
    views += [_section_view(search, sec) for sec in search.sections]
    views = [v for v in views if v.closed]
    assert len(views) > 50 and {v.size for v in views} >= {1, 2, 166}
    for view in views:
        check_table_analysis(view)


def test_table_analysis_matches_oracles_lambda_z6(z6):
    check_table_analysis(lambda_view(z6))


def test_table_analysis_tiny_tables(z2):
    for m in (1, 2):
        for cells in itertools.product(range(m), repeat=m * m):
            check_table_analysis(table_view(z2, np.reshape(cells, (m, m))))


def moved_unit(rnd, line, m):
    """The line with one unit moved between two entries: its sum stays, but
    a constant line is no longer constant and a permutation of range(m) no
    longer a permutation. None when no pair of entries tried can move."""
    line = list(line)
    pairs = [(p, q) for p, q in (rnd.sample(range(m), 2) for _ in range(4 * m))
             if line[p] + 1 < m and line[q] > 0 and line[q] != line[p] + 1]
    if not pairs:
        return None
    p, q = rnd.choice(pairs)
    line[p] += 1
    line[q] -= 1
    return line


PLANTS = ("left zero", "right zero", "zero", "identity", "left identity", "right identity",
          "permutation row", "permutation column", "near-permutation row",
          "near-permutation column", "near-left-zero row", "near-right-zero column",
          "central", "near-central")


def planted_table(rnd, m):
    """A random table on range(m) with planted lines, in a random order; a
    later planting overwrites an earlier one where they cross, so only the
    oracles say what the table has."""
    t = np.array([[rnd.randrange(m) for _ in range(m)] for _ in range(m)])
    for kind in rnd.sample(PLANTS, rnd.randint(1, len(PLANTS))):
        for i in rnd.sample(range(m), 1 if kind == "identity" else rnd.randint(1, m // 3)):
            perm = rnd.sample(range(m), m)
            if kind in ("left identity", "right identity"):
                # row (column) i is 0..m-1, column (row) i a permutation fixing i
                perm[perm.index(i)], perm[i] = perm[i], i
                if kind == "left identity":
                    t[:, i], t[i] = perm, np.arange(m)
                else:
                    t[i], t[:, i] = perm, np.arange(m)
                continue
            if kind in ("central", "near-central"):     # column i is row i
                t[:, i] = t[i]
                if kind == "near-central":              # but for one cell
                    j = rnd.choice([j for j in range(m) if j != i])
                    t[j, i] = (t[i, j] + 1) % m
                continue
            if kind.startswith("near-"):
                line = moved_unit(rnd, perm if "permutation" in kind else [i] * m, m)
            else:
                line = (list(range(m)) if kind == "identity" else perm
                        if "permutation" in kind else [i] * m)
            if line is None:
                continue
            if kind in ("left zero", "zero", "identity") or kind.endswith("row"):
                t[i] = line
            if kind in ("right zero", "zero", "identity") or kind.endswith("column"):
                t[:, i] = line
    return t


def test_table_analysis_matches_oracles_on_planted_tables(z2):
    rnd = random.Random(13)
    found = dict.fromkeys(("left_zeros", "right_zeros", "zeros", "left_cancelable",
                           "right_cancelable"), 0)
    found.update(identity=0, fake_rows=0, fake_cols=0, fake_left_zeros=0,
                 fake_right_zeros=0)
    for k in range(120):
        m = rnd.randint(3, 40) if k % 4 else rnd.randint(65, 160)  # past one block
        t = planted_table(rnd, m)
        check_table_analysis(table_view(z2, t))
        spec = special_elements(table_view(z2, t))
        for key in ("left_zeros", "right_zeros", "zeros", "left_cancelable",
                    "right_cancelable"):
            found[key] += bool(getattr(spec, key))
        found["identity"] += spec.identity is not None
        # lines the sum filter passes and the exact check must reject
        for lines, perm, zero in ((t, "fake_rows", "fake_left_zeros"),
                                  (t.T, "fake_cols", "fake_right_zeros")):
            for i, line in enumerate(lines.tolist()):
                if sum(line) == m * (m - 1) // 2 and len(set(line)) < m:
                    found[perm] += 1
                if sum(line) == m * i and set(line) != {i}:
                    found[zero] += 1
    assert min(found.values()) >= 5, found


def test_table_analysis_on_bands_and_groups(z2):
    # more candidates than one block of lines: every element is a left zero,
    # a right zero, or cancelable and central
    ar = np.arange(150)
    for t in (np.repeat(ar[:, None], 150, axis=1), np.repeat(ar[None, :], 150, axis=0),
              (ar[:, None] + ar) % 150, (ar[:, None] * 7 + ar * 11) % 150):
        check_table_analysis(table_view(z2, t))


@pytest.mark.parametrize("m", [1, _LINES - 1, _LINES, _LINES + 1, 2 * _LINES + 1])
def test_line_sets_and_minimal_ideals_match_oracles(m):
    # C, Fortran and strided tables in int16 and int32, against one Python
    # set per line, the set-based minimal ideals and the sort-based invariants
    rnd, rng = random.Random(m), np.random.default_rng(m)
    palettes = rng.integers(0, m, (m, 3))
    tables = [planted_table(rnd, m) if m >= 3 else np.zeros((m, m), dtype=int),
              rng.choice(m, size=4)[rng.integers(0, 4, (m, m))],    # few distinct lines
              palettes[np.arange(m)[:, None], rng.integers(0, 3, (m, m))]]  # <= 3 per row
    for t in tables:
        want_sets = [oracles.naive_line_sets(t, axis) for axis in (0, 1)]
        want_ideals = [oracles.naive_minimal_row_ideals(t.T), oracles.naive_minimal_row_ideals(t)]
        want_invariants = oracles.sorted_invariants(t)
        for dtype in (np.int16, np.int32):
            strided = np.zeros((2 * m, 2 * m), dtype=dtype)[::2, ::2]
            strided[...] = t
            for layout in (np.ascontiguousarray(t, dtype=dtype),
                           np.asfortranarray(t, dtype=dtype), strided):
                for axis in (0, 1):
                    sets = _line_sets(layout, axis)
                    assert sets.shape == (m, (m + 7) // 8) and sets.dtype == np.uint8
                    bits = np.unpackbits(sets, axis=1)
                    assert not bits[:, m:].any()
                    assert [frozenset(np.flatnonzero(b).tolist()) for b in bits] \
                        == want_sets[axis]
                    assert _minimal_ideals(layout, axis) == want_ideals[axis]
                assert np.array_equal(_invariants(layout), want_invariants)


def test_minimal_ideals_of_a_large_left_zero_band(z2, light_paths, lines_read):
    # xs = x: every right ideal is a singleton, every left ideal the whole band,
    # so no minimal set contains another of its size; a hand-built view with
    # no verdict reads all lines, and no Light's test or generators run
    m = 4000
    band = table_view(z2, np.repeat(np.arange(m, dtype=np.int32)[:, None], m, axis=1))
    assert minimal_right_ideals(band) == [(x,) for x in range(m)]
    assert minimal_left_ideals(band) == [tuple(range(m))]
    assert lines_read == [m, m] and light_paths == [] and "generators" not in vars(band)


# -- orbits and quotients --------------------------------------------------------------------

def test_orbits_g3(z3, g3_all):
    dec = orbits(z3, g3_all)
    assert len(dec.orbits) == 8
    sizes = sorted(len(o) for o in dec.orbits)
    assert sizes == [1, 1, 1, 3, 3, 3, 3, 3]
    fixed = {g3_all[o[0]] for o in dec.orbits if len(o) == 1}
    assert fixed == {smallest(3), triangle(), largest(3)}
    assert dec.quotient.closed


def test_orbits_g2(z2, g2_all):
    dec = orbits(z2, g2_all)
    assert len(dec.orbits) == 3


def test_orbits_require_group(magma3, g3_all):
    lz = build_builtin("left-zero", 3)
    with pytest.raises(InputError):
        orbits(lz, sorted(enumerate_all(3)))


def test_orbits_require_shift_closure(z3):
    with pytest.raises(InputError):
        orbits(z3, [principal(3, 0)])


def test_orbits_require_product_closure(z3):
    e, a = principal(3, 0), principal(3, 1)
    # closed under right shifts but not under the product
    elems = sorted({e & a, a & principal(3, 2), e & principal(3, 2)})
    with pytest.raises(InputError):
        orbits(z3, elems)


def test_orbits_noncommutative_quotient_ill_defined(s3):
    # over a non-commutative group the right-orbit relation fails to be a
    # congruence; the well-definedness verification must catch it
    lam = maximal_linked_families(6)
    with pytest.raises(InputError, match="not a congruence"):
        orbits(s3, lam)


# -- sections -----------------------------------------------------------------------------------

def test_sections_g2(z2, g2_all):
    search = find_sections(z2, g2_all)
    assert len(search.sections) == 1
    sec = [g2_all[i] for i in search.sections[0]]
    assert sorted(sec) == sorted([smallest(2), principal(2, 0), largest(2)])


def test_sections_g3_match_bruteforce(z3, g3_all, g3_view):
    search = find_sections(z3, g3_all)
    # independent brute force over every system of representatives
    dec = search.decomposition
    t = g3_view.table
    free = [o for o in dec.orbits if len(o) > 1]
    fixed = [o[0] for o in dec.orbits if len(o) == 1]
    brute = []
    for choice in itertools.product(*free):
        T = set(fixed) | set(choice)
        if all(t[i][j] in T for i in T for j in T):
            brute.append(tuple(sorted(T)))
    assert sorted(search.sections) == sorted(brute)
    assert len(search.sections) == 3
    # every section is isomorphic to the quotient and covers the set by shifts
    for sec in search.sections:
        sview = _section_view(search, sec)
        assert are_isomorphic(sview, dec.quotient) is not None
        covered = {product(z3, g3_all[i], principal(3, h)).bits
                   for i in sec for h in range(3)}
        assert covered == {f.bits for f in g3_all}


def test_section_contains_published_chain(z3, g3_all):
    # one of the sections is exactly the corrected seven-term chain plus e
    e, a, ai = (principal(3, i) for i in range(3))
    chain = [e & a & ai, e & a, e & (a | ai),
             (e | a) & (e | ai) & (a | ai),
             e | (a & ai), e | ai, e | a | ai, e]
    want = tuple(sorted(g3_all.index(h) for h in chain))
    search = find_sections(z3, g3_all)
    assert want in search.sections


def test_sections_lambda_z5_empty(z5):
    t0 = time.monotonic()
    lam = maximal_linked_families(5)
    search = find_sections(z5, lam)
    elapsed = time.monotonic() - t0
    assert len(search.sections) == 0
    assert elapsed < 60.0


def test_sections_budget(z3, g3_all):
    with pytest.raises(BudgetExceeded):
        find_sections(z3, g3_all, budget=3)


# (carrier, points, class) -> (number of sections, search nodes)
SECTION_PINS = {("cyclic", 2, "all"): (1, 21), ("cyclic", 3, "all"): (3, 408),
                ("klein-4", 4, "all"): (0, 32796), ("cyclic", 4, "all"): (0, 5562),
                ("cyclic", 5, "maxlinked"): (0, 291), ("cyclic", 6, "maxlinked"): (0, 131789)}


@pytest.mark.parametrize("name, n, token", SECTION_PINS)
def test_section_search_pins(name, n, token):
    # a node is a candidate tried or a table read up to and including the
    # first conflict, so exactly `nodes` of budget is enough
    g = build_builtin(name, n)
    words = class_words(g, token, 2 if token == "maxlinked" else None)
    search = find_sections(g, words)
    assert (len(search.sections), search.nodes) == SECTION_PINS[name, n, token]
    with pytest.raises(BudgetExceeded):
        find_sections(g, words, budget=search.nodes - 1)
    again = find_sections(g, words, budget=search.nodes)
    assert (again.sections, again.nodes) == (search.sections, search.nodes)


# -- isomorphism ----------------------------------------------------------------------------------

def test_isomorphic_to_itself(g3_view):
    perm = are_isomorphic(g3_view, g3_view)
    assert perm is not None
    assert sorted(perm) == list(range(18))


def test_section_search_depth_does_not_grow_with_orbits(z6):
    # the lambda(Z6) search descends through dozens of orbits before it backs
    # up; with its own stack of frames it runs under a recursion limit a few
    # frames above the caller's depth
    words = class_words(z6, "maxlinked", 2)
    free = find_sections(z6, words)     # also imports and compiles every path
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        low = find_sections(z6, words)
    finally:
        sys.setrecursionlimit(limit)
    assert (low.sections, low.nodes) == (free.sections, free.nodes) == ((), 131789)


def test_sections_isomorphic_to_quotient(z2, g2_all):
    search = find_sections(z2, g2_all)
    sview = _section_view(search, search.sections[0])
    assert are_isomorphic(sview, search.decomposition.quotient) is not None


def test_t_z2_not_isomorphic_to_left_zero_semigroup(z2, g2_all):
    search = find_sections(z2, g2_all)
    sview = _section_view(search, search.sections[0])
    lz = SemigroupView(groupoid=z2, words=None, table=((0, 0, 0), (1, 1, 1), (2, 2, 2)))
    assert are_isomorphic(sview, lz) is None


def test_isomorphism_respects_table():
    g = build_builtin("cyclic", 2)
    v1 = SemigroupView(g, None, ((0, 1), (1, 0)))
    v2 = SemigroupView(g, None, ((1, 0), (0, 1)))
    perm = are_isomorphic(v1, v2)
    assert perm == (1, 0)
    v3 = SemigroupView(g, None, ((0, 0), (0, 0)))
    assert are_isomorphic(v1, v3) is None


def test_isomorphism_search_depth_does_not_grow_with_size(z2):
    # a left-zero band (ij = i) above the default recursion limit of 1000
    m = 1100
    table = np.repeat(np.arange(m)[:, None], m, axis=1)
    band = SemigroupView(z2, None, table)
    assert are_isomorphic(band, band) == tuple(range(m))


def test_isomorphism_of_tables_past_the_int16_products(z2):
    # _maps keeps flat cell offsets a * m; from m = 182 on they pass 2^15, so
    # they must not be computed in the int16 of the table entries
    m = 200
    t = np.add.outer(np.arange(m), np.arange(m)) % m     # the cyclic group Z_200
    rng = np.random.default_rng(7)
    v1 = SemigroupView(z2, None, t)
    v2 = SemigroupView(z2, None, relabeled(t, rng))
    image = are_isomorphic(v1, v2)
    assert image is not None
    check_isomorphism(v1, v2, image)


def relabeled(t, rng):
    """The table t with each element i renamed by a seeded permutation."""
    perm = rng.permutation(len(t))
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return out


def check_isomorphism(v1, v2, image):
    image = np.asarray(image)
    assert sorted(image.tolist()) == list(range(v1.size))
    assert (image[v1.table] == v2.table[np.ix_(image, image)]).all()


def test_isomorphism_matches_oracle_on_seeded_tables(z2):
    # random tables, most of them not associative, with few distinct
    # entries so that unrelated pairs are sometimes isomorphic, against
    # relabelings, one-cell perturbations and each other
    rng = np.random.default_rng(16)
    verdicts = set()
    for m in range(1, 7):
        for _ in range(12):
            t1 = rng.integers(0, rng.integers(1, m + 1), (m, m))
            t2 = relabeled(t1, rng)
            t3 = t2.copy()
            t3[tuple(rng.integers(m, size=2))] = rng.integers(m)
            t4 = rng.integers(0, rng.integers(1, m + 1), (m, m))
            v1, *others = (table_view(z2, t) for t in (t1, t2, t3, t4))
            for other in others:
                image = are_isomorphic(v1, other)
                want = oracles.naive_isomorphism(t1.tolist(), other.table.tolist())
                assert (image is None) == (want is None), (t1.tolist(), other.table.tolist())
                if image is not None:
                    check_isomorphism(v1, other, image)
                verdicts.add(image is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name, n, token, seed", [
    ("cyclic", 3, "all", 3), ("cyclic", 4, "all", 4), ("klein-4", 4, "all", 5),
    ("cyclic", 5, "maxlinked", 6), ("cyclic", 6, "maxlinked", 7),
    ("symmetric-3", 6, "maxlinked", 8)])
def test_isomorphism_finds_seeded_relabelings(name, n, token, seed):
    g = build_builtin(name, n)
    view = subsemigroup_view(g, class_words(g, token, 2 if token == "maxlinked" else None))
    other = table_view(g, relabeled(view.table, np.random.default_rng(seed)))
    check_isomorphism(view, other, are_isomorphic(view, other))


def test_isomorphism_rejects_one_cell_perturbations(z4):
    view = subsemigroup_view(z4, upset_words(4))
    rng = np.random.default_rng(4)
    other = relabeled(view.table, rng)
    m, searched = view.size, 0
    for _ in range(12):
        t = other.copy()
        cell = tuple(rng.integers(m, size=2))
        t[cell] = (t[cell] + rng.integers(1, m)) % m
        # some perturbations keep every invariant, so the search must refute them
        searched += np.array_equal(np.sort(_invariants(view.table)), np.sort(_invariants(t)))
        assert are_isomorphic(view, table_view(z4, t)) is None
    assert searched > 0


def test_map_search_matches_bruteforce_with_classes():
    # every table-preserving bijection that sends each element into its class
    rng = np.random.default_rng(16)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        t1 = rng.integers(0, rng.integers(1, m + 1), (m, m))
        t2 = relabeled(t1, rng)
        c1, c2 = rng.integers(0, 2, m), rng.integers(0, 2, m)
        want = [p for p in itertools.permutations(range(m)) if (c2[list(p)] == c1).all()
                and (np.array(p)[t1] == t2[np.ix_(p, p)]).all()]
        assert sorted(tuple(x.tolist()) for x in _maps(t1, t2, c1, c2, np.inf)[0]) == want


def test_map_search_keeps_maps_injective():
    # (0, 1, 2, 2) preserves the tables: reading 1*0 and 0*1 after 0 -> 0
    # and 1 -> 1 meets the unmapped 2 and 3 with one cell value, 2, so one
    # read batch must not map both of them there; no bijection preserves
    # the tables (3 against 4 idempotents)
    t1 = np.array([[0, 3, 2, 2], [2, 1, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2]])
    t2 = np.array([[0, 2, 2, 3], [2, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]])
    one = np.zeros(4, dtype=np.intp)
    assert _maps(t1, t2, one, one, np.inf)[0] == []


def test_lambda_z6_not_isomorphic_to_lambda_s3(z6, s3):
    assert are_isomorphic(lambda_view(z6), lambda_view(s3)) is None


def quaternion_table():
    """Q8 as 4 * sign + unit, units 1, i, j, k."""
    units = [[(0, 0), (0, 1), (0, 2), (0, 3)], [(0, 1), (1, 0), (0, 3), (1, 2)],
             [(0, 2), (1, 3), (1, 0), (0, 1)], [(0, 3), (0, 2), (1, 1), (1, 0)]]
    return [[4 * ((a // 4 + b // 4 + units[a % 4][b % 4][0]) % 2) + units[a % 4][b % 4][1]
             for b in range(8)] for a in range(8)]


def test_isomorphism_budget_on_equal_invariants(z2, monkeypatch):
    # Z8 and Q8: one idempotent, two elements with an idempotent square, and
    # every row and column a permutation, but only Z8 is commutative
    z8 = SemigroupView(z2, None, [[(a + b) % 8 for b in range(8)] for a in range(8)])
    q8 = SemigroupView(z2, None, quaternion_table())
    assert oracles.naive_is_associative(q8.table) and q8.is_associative()
    k1, k2 = _invariants(z8.table), _invariants(q8.table)
    assert np.array_equal(np.sort(k1), np.sort(k2))
    cls = np.unique(np.concatenate([k1, k2]), return_inverse=True)[1]
    maps, nodes = _maps(z8.table, q8.table, cls[:8], cls[8:], np.inf, first=True)
    assert maps == [] and nodes > 1
    assert oracles.naive_isomorphism(z8.table.tolist(), q8.table.tolist()) is None
    assert are_isomorphic(z8, q8) is None
    monkeypatch.setattr(structure, "SECTION_BUDGET", nodes)
    assert are_isomorphic(z8, q8) is None
    monkeypatch.setattr(structure, "SECTION_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceeded, match=f"exceeded {nodes - 1} nodes"):
        are_isomorphic(z8, q8)


# -- right cancelability ------------------------------------------------------------------------------

def test_right_cancelable_certificate_examples(z3):
    cert = right_cancelable_certificate(z3, principal(3, 0))
    assert cert.right_cancelable is True
    assert cert.translates_distinct
    assert cert.disjoint_family is not None

    cert = right_cancelable_certificate(z3, smallest(3))
    assert cert.right_cancelable is False
    assert not cert.translates_distinct


def test_certificate_implications(z2, z3):
    # disjoint family implies cancelable implies distinct translates
    for g in (z2, z3):
        for f in enumerate_all(g.n):
            cert = right_cancelable_certificate(g, f)
            if cert.disjoint_family is not None:
                assert cert.right_cancelable
            if cert.right_cancelable:
                assert cert.translates_distinct


def test_certificate_empirical_status_up_to_four(z2, z3, z4):
    # empirical report: how often the three conditions coincide on small
    # cyclic carriers; only the two theorem-backed implications are asserted
    for g in (z2, z3, z4):
        tallies = {"cancelable": 0, "translates_distinct": 0, "family": 0,
                   "all_equivalent": 0, "total": 0}
        for f in enumerate_all(g.n):
            cert = right_cancelable_certificate(g, f)
            has_family = cert.disjoint_family is not None
            if has_family:
                assert cert.right_cancelable
            if cert.right_cancelable:
                assert cert.translates_distinct
            tallies["total"] += 1
            tallies["cancelable"] += bool(cert.right_cancelable)
            tallies["translates_distinct"] += cert.translates_distinct
            tallies["family"] += has_family
            tallies["all_equivalent"] += (
                bool(cert.right_cancelable) == cert.translates_distinct == has_family)
        print(f"  right-cancelability conditions on {g.name}: {tallies}")


def test_certificate_scope_on_large_carrier(z5):
    lam5 = lambda_view(z5)
    cert = right_cancelable_certificate(z5, principal(5, 0), within=lam5)
    assert cert.scope.startswith("subsemigroup")
    assert cert.right_cancelable is True
    cert = right_cancelable_certificate(z5, principal(5, 0))
    assert (cert.scope, cert.right_cancelable) == ("G(X)", True)
    cert = right_cancelable_certificate(build_builtin("cyclic", 7), principal(7, 0))
    assert cert.right_cancelable is None
    assert cert.scope == "skipped (carrier > 6 and no sub-semigroup supplied)"


def test_certificate_over_g5_matches_the_view(z5):
    # over all of G(Z5), the gathered column against the right cancelable
    # elements that special_elements reads off the 7,579-element table
    view = subsemigroup_view(z5, upset_words(5))
    cancelable = set(special_elements(view).right_cancelable)
    rnd = random.Random("certificate-g5")
    picks = rnd.sample(range(view.size), 20)
    fams = [principal(5, x) for x in range(5)] + [largest(5)] + [view.elements[i] for i in picks]
    for f in fams:
        cert = right_cancelable_certificate(z5, f)
        assert cert.scope == "G(X)"
        assert cert.right_cancelable == (view.index_of(f) in cancelable), f


def test_certificate_over_g6_gathers_in_chunks(z6, census6):
    # 7,828,352 words: the census and its column, and no census-sized gather
    # (an unchunked one holds 64 B a word, about 500 MB)
    census, certs = 8 * len(census6), []
    peak = traced_peak(lambda: certs.append(right_cancelable_certificate(z6, principal(6, 1))))
    assert peak <= 2 * census + (16 << 20)
    assert (certs[0].scope, certs[0].right_cancelable) == ("G(X)", True)


def test_certificate_scope_needs_hyperspaces(z3, g3_all):
    quotient = orbits(z3, g3_all).quotient
    with pytest.raises(InputError, match="view of hyperspaces"):
        right_cancelable_certificate(z3, principal(3, 0), within=quotient)


def _injective_by_product(g, pool, f):
    return len({product(g, y, f) for y in pool}) == len(pool)


def test_certificate_column_matches_products(z2, z3, z4):
    # the gathered column against product(y, f) for every y in the pool
    for g in (z2, z3, z4, build_builtin("right-zero", 3)):
        pool = list(enumerate_all(g.n))
        for f in pool:
            cert = right_cancelable_certificate(g, f)
            assert cert.right_cancelable == _injective_by_product(g, pool, f)


def test_certificate_column_within_lambda_z5(z5):
    lam5 = lambda_view(z5)
    pool = [Hyperspace._raw(5, b) for b in lam5.words.tolist()]
    rnd = random.Random(5)
    verdicts = set()
    for f in rnd.sample(pool, 12) + [smallest(5), largest(5), principal(5, 2)]:
        cert = right_cancelable_certificate(z5, f, within=lam5)
        assert cert.right_cancelable == _injective_by_product(z5, pool, f)
        verdicts.add(cert.right_cancelable)
    assert verdicts == {True, False}
    assert "elements" not in lam5.__dict__
    with pytest.raises(InputError, match="same carrier"):
        right_cancelable_certificate(build_builtin("cyclic", 4), principal(4, 0), within=lam5)


def test_label_builds_one_hyperspace(z3):
    view = lambda_view(z3)
    assert view.label(0) == repr(Hyperspace._raw(3, int(view.words[0])))
    assert "elements" not in view.__dict__


@pytest.mark.parametrize("name,n", [("cyclic", 1), ("cyclic", 2), ("cyclic", 3),
                                    ("cyclic", 4), ("klein-4", 4), ("magma3", 3),
                                    ("left-zero", 2), ("left-zero", 3), ("left-zero", 4)])
def test_certificate_conditions_match_oracles(name, n, magma3):
    # the translates against product(<x>, F), the disjoint family against
    # the first witness over all members of F n F^T
    g = magma3 if name == "magma3" else build_builtin(name, n)
    points = [principal(n, x) for x in range(n)]
    for f in enumerate_all(n):
        cert = right_cancelable_certificate(g, f)
        assert cert.translates_distinct == (len({product(g, p, f) for p in points}) == n)
        assert cert.disjoint_family == oracles.first_disjoint_translates(
            g.table, oracles.family_of(f)), (g.name, f)


def test_certificate_n16_without_products(monkeypatch):
    # over Z16, x * F = F + x, so the translates are distinct iff no
    # nontrivial rotation fixes the minimal sets of F
    def refuse(*args):
        raise AssertionError("the reference product was called")
    monkeypatch.setattr("gspace.structure.product", refuse)
    g = build_builtin("cyclic", 16)
    rnd = random.Random(16)
    fams = [generate(16, [rnd.randrange(1, 1 << 16) for _ in range(rnd.randint(1, 4))])
            for _ in range(20)]
    rotation_invariant = generate(16, [(3 << x | 3 >> (16 - x)) & 0xFFFF for x in range(16)])
    for f in fams + [principal(16, 3), rotation_invariant]:
        cert = right_cancelable_certificate(g, f)
        assert cert.scope.startswith("skipped") and cert.right_cancelable is None
        mins = {frozenset(y for y in range(16) if m >> y & 1) for m in f.minimal_sets()}
        fixed = [x for x in range(1, 16)
                 if {frozenset((y + x) % 16 for y in s) for s in mins} == mins]
        assert cert.translates_distinct == (not fixed)
        inter = f & f.transversal()
        if cert.disjoint_family is not None:
            used = 0
            for x, s in enumerate(cert.disjoint_family):
                tr = _image_table(g)[x][s]
                assert s in inter and not tr & used
                used |= tr
    assert right_cancelable_certificate(g, principal(16, 3)).disjoint_family == (8,) * 16
    assert not right_cancelable_certificate(g, rotation_invariant).translates_distinct


def test_certificate_family_translates_disjoint(z3):
    cert = right_cancelable_certificate(z3, principal(3, 0))
    used = 0
    for x, s in enumerate(cert.disjoint_family):
        tr = _image_table(z3)[x][s]
        assert tr & used == 0
        used |= tr


# -- z6 scale ------------------------------------------------------------------------------------------

def traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_analyses_allocate_blocks_of_lines(z6):
    # above the built λ(Z6) view, an analysis holds the packed line sets and
    # a few blocks of _LINES lines of intp indices: no m x m membership
    # matrix, sorted table copy, or R x n x R orbit gather; the ideal reports
    # hold the sets of the |K| kernel lines and one block of intp indices
    view = lambda_view(z6)
    m, k = view.size, len(minimal_ideal(view))
    width = (m + 7) // 8
    for run in (lambda: minimal_left_ideals(view), lambda: minimal_right_ideals(view)):
        assert traced_peak(run) <= k * width + _LINES * m * 8
    for run in (lambda: _invariants(view.table), lambda: view.generators):
        assert traced_peak(run) <= m * width + 4 * _LINES * m * 8
    # orbits builds its own view
    assert traced_peak(lambda: orbits(z6, view.words)) <= view.table.nbytes + 8 * 2 ** 20


def test_lambda_z6_view_and_ideals(z6):
    view = lambda_view(z6)
    assert view.closed and view.size == 2646
    rnd = random.Random(6)
    check_cells(z6, view, [(rnd.randrange(2646), rnd.randrange(2646)) for _ in range(60)])
    ideals = minimal_left_ideals(view)
    ults = {view.index_of(principal(6, x)) for x in range(6)}
    assert ideals
    assert all(not (set(i) & ults) for i in ideals)
