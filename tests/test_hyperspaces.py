import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import gspace.hyperspaces as hyperspaces_mod
from gspace import (Hyperspace, InputError, build_builtin, enumerate_all,
                    format_hyperspace, generate, largest, mask_elements,
                    parse_groupoid, parse_hyperspace, principal, smallest,
                    subset_mask)
from gspace.classify import _census_flags, class_words
from gspace.hyperspaces import _gather_words, _membership, _upsets, format_words, upset_words


def masks(n, *sets):
    return [subset_mask(n, s) for s in sets]


def hyperspaces(n, max_base=4):
    return st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_base) \
             .map(lambda base: generate(n, base))


# -- construction -----------------------------------------------------------------

def test_generate_full_set_is_smallest():
    h = generate(2, masks(2, (0, 1)))
    assert h == smallest(2)
    assert len(list(h.members())) == 1


def test_generate_z5_four_triples_has_ten_members():
    base = masks(5, (0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4))
    h = generate(5, base)
    # independent count: every non-empty subset tested against the base directly
    base_sets = [frozenset(s) for s in ((0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4))]
    expected = sum(
        1 for k in range(1, 6) for c in itertools.combinations(range(5), k)
        if any(b <= frozenset(c) for b in base_sets))
    assert expected == 10
    assert len(list(h.members())) == 10


def test_generate_singletons_is_largest():
    h = generate(3, masks(3, (0,), (1,), (2,)))
    assert h == largest(3)
    assert len(list(h.members())) == 7


def test_generate_errors():
    with pytest.raises(InputError):
        generate(3, [])
    with pytest.raises(InputError):
        generate(3, [0])
    with pytest.raises(InputError):
        generate(3, [1 << 3])


def test_principal_counts():
    assert len(list(principal(2, 0).members())) == 2
    assert len(list(principal(3, 0).members())) == 4
    with pytest.raises(InputError):
        principal(3, 3)


def test_validating_constructor():
    ok = Hyperspace(2, smallest(2).bits)
    assert ok == smallest(2)
    assert Hyperspace(2, 0b1110) == largest(2)
    with pytest.raises(InputError):
        Hyperspace(2, 0b1001)          # empty set as member
    with pytest.raises(InputError):
        Hyperspace(2, 0b0010)          # full carrier missing
    with pytest.raises(InputError):
        Hyperspace(2, (1 << 4) | 0b1000)  # stray bit beyond 2^n positions


def test_validating_constructor_monotone():
    # {0} member but its superset {0,1} missing
    with pytest.raises(InputError):
        Hyperspace(3, (1 << 7) | (1 << 1))


def test_validating_constructor_accepts_exactly_the_monotone_words():
    # every 2^(2^n)-bit word: accepted iff the naive filter keeps it; a
    # rejected non-monotone word names the first violation of an ascending
    # scan (lowest member a, then lowest point i with a + {i} missing)
    for n in (1, 2, 3):
        nsub, full = 1 << n, (1 << n) - 1
        accepted = []
        for v in range(1 << nsub):
            try:
                accepted.append(Hyperspace(n, v).bits)
            except InputError as exc:
                if v & 1 or not (v >> full) & 1:
                    continue
                gaps = [(a, a | 1 << i) for a in range(1, nsub) if (v >> a) & 1
                        for i in range(n) if not (v >> (a | 1 << i)) & 1]
                a, b = gaps[0]
                assert str(exc) == f"family not upward closed: {a:b} in, {b:b} out"
        assert accepted == oracles.naive_hyperspace_vectors(n)


def test_generate_matches_set_model_seeded():
    rnd = random.Random(11)
    for n in range(1, 6):
        for _ in range(60):
            base = [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 4))]
            sets = [[i for i in range(n) if (b >> i) & 1] for b in base]
            assert oracles.family_of(generate(n, base)) == oracles.up_close(n, sets)


def test_generate_matches_definition_large_carriers():
    # A is a member iff some base set is a subset of A, tested per mask
    rnd = random.Random(12)
    for n in (8, 10, 12):
        for _ in range(4):
            base = [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 5))]
            bits = sum(1 << a for a in range(1, 1 << n)
                       if any(b & a == b for b in base))
            assert generate(n, base).bits == bits


def test_principal_is_the_point_word():
    for n in range(1, 11):
        for x in range(n):
            assert principal(n, x).bits == sum(
                1 << a for a in range(1 << n) if (a >> x) & 1)


# -- lattice and transversality ------------------------------------------------------

def test_meet_join_z2_examples():
    e, a = principal(2, 0), principal(2, 1)
    assert e & a == smallest(2)
    assert e | a == largest(2)
    with pytest.raises(InputError):
        e & principal(3, 0)
    with pytest.raises(InputError):
        e | principal(3, 0)


def test_triangle_family_from_lattice_term():
    # expand (a v e) ^ (a v a~) ^ (e v a~) by brute force in the set model
    e, a, ai = (oracles.family_of(principal(3, i)) for i in range(3))
    fam = oracles.naive_meet(oracles.naive_meet(
        oracles.naive_join(a, e), oracles.naive_join(a, ai)),
        oracles.naive_join(e, ai))
    assert oracles.naive_minimal_sets(fam) == [[0, 1], [0, 2], [1, 2]]
    p0, p1, p2 = (principal(3, i) for i in range(3))
    term = (p1 | p0) & (p1 | p2) & (p0 | p2)
    assert oracles.family_bits(3, fam) == term.bits


def test_transversal_extremes_and_principal():
    assert smallest(3).transversal() == largest(3)
    assert largest(3).transversal() == smallest(3)
    for x in range(3):
        assert principal(3, x).transversal() == principal(3, x)


def test_transversal_triangle_self_dual_against_oracle():
    tri = generate(3, masks(3, (0, 1), (0, 2), (1, 2)))
    fam = oracles.family_of(tri)
    assert oracles.naive_transversal(3, fam) == fam
    assert tri.transversal() == tri


@given(hyperspaces(3))
def test_transversal_matches_set_model(h):
    fam = oracles.family_of(h)
    assert oracles.family_bits(3, oracles.naive_transversal(3, fam)) \
        == h.transversal().bits


@given(hyperspaces(3))
def test_involution_n3(h):
    assert h.transversal().transversal() == h


@settings(max_examples=60)
@given(st.integers(4, 5).flatmap(hyperspaces))
def test_involution_n45(h):
    assert h.transversal().transversal() == h


def test_involution_exhaustive_small():
    for n in (1, 2, 3):
        for h in enumerate_all(n):
            assert h.transversal().transversal() == h


def reversed_complement(h):
    """The transversal word by reversing the complement's binary digits."""
    return int(_membership(h.n, ~h.bits & ((1 << (1 << h.n)) - 1)), 2)


def test_transversal_matches_set_model_exhaustive():
    for n in (1, 2, 3, 4):
        for h in enumerate_all(n):
            fam = oracles.naive_transversal(n, oracles.family_of(h))
            assert h.transversal().bits == oracles.family_bits(n, fam)
    for h in enumerate_all(5):
        assert h.transversal().bits == reversed_complement(h)


@pytest.mark.parametrize("n", range(6, 17))
def test_transversal_matches_reversed_complement_seeded(n):
    rnd = random.Random(f"transversal-{n}")
    fams = [smallest(n), largest(n), principal(n, n - 1)]
    fams += [generate(n, [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 12))])
             for _ in range(40)]
    for h in fams:
        assert h.transversal().bits == reversed_complement(h)
        assert h.transversal().transversal() == h


@given(hyperspaces(3), hyperspaces(3))
def test_de_morgan(u, v):
    assert (u | v).transversal() == u.transversal() & v.transversal()
    assert (u & v).transversal() == u.transversal() | v.transversal()


@given(hyperspaces(4), hyperspaces(4), hyperspaces(4))
def test_lattice_distributive(u, v, w):
    assert u & (v | w) == (u & v) | (u & w)
    assert u | (v & w) == (u | v) & (u | w)


def test_reconstruction_from_minimal_sets_exhaustive():
    # every family is the join over its minimal sets of the meet of principals
    for n in (1, 2, 3):
        for h in enumerate_all(n):
            acc = None
            for m in h.minimal_sets():
                part = None
                for i in mask_elements(m):
                    p = principal(n, i)
                    part = p if part is None else part & p
                acc = part if acc is None else acc | part
            assert acc == h


# -- minimal sets --------------------------------------------------------------------

def test_minimal_sets_extremes():
    assert largest(3).minimal_sets() == (1, 2, 4)
    assert smallest(3).minimal_sets() == (7,)


def test_minimal_sets_sorted_by_mask():
    h = generate(3, masks(3, (1, 2), (0,)))
    assert h.minimal_sets() == (1, 6)


@given(hyperspaces(4))
def test_generate_of_minimal_sets_roundtrip(h):
    assert generate(4, h.minimal_sets()) == h


def test_minimal_sets_of_generate_prunes_base():
    h = generate(3, masks(3, (0,), (0, 1), (1, 2)))
    assert h.minimal_sets() == (1, 6)


def _mask_of(elements):
    return sum(1 << i for i in elements)


def _check_minimal_sets(h):
    want = sorted(_mask_of(s) for s in oracles.naive_minimal_sets(oracles.family_of(h)))
    assert list(h.minimal_sets()) == want


def test_minimal_sets_match_oracle_exhaustive():
    for n in (1, 2, 3, 4):
        for h in enumerate_all(n):
            _check_minimal_sets(h)


@pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
def test_minimal_sets_match_oracle_seeded(n):
    rnd = random.Random(f"minimal-sets-{n}")
    for _ in range(20 if n < 16 else 4):    # the oracle walks all 2^n masks
        # unions of two random masks are large, so each closure stays small
        base = [rnd.getrandbits(n) | rnd.getrandbits(n) | 1 << rnd.randrange(n)
                for _ in range(rnd.randint(1, 4))]
        _check_minimal_sets(generate(n, base))


@pytest.mark.parametrize("n,k", [(12, 6), (16, 8), (16, 15)])
def test_minimal_sets_of_dense_antichains(n, k):
    # the k-subsets, among them the 12,870 8-subsets of 16 points, set bits
    # in most bytes of the word
    base = sorted(_mask_of(c) for c in itertools.combinations(range(n), k))
    assert Hyperspace._raw(n, generate(n, base).bits).minimal_sets() == tuple(base)


# -- enumeration -----------------------------------------------------------------------

def test_census_counts_small():
    assert sum(1 for _ in enumerate_all(1)) == 1
    assert sum(1 for _ in enumerate_all(2)) == 4
    assert sum(1 for _ in enumerate_all(3)) == 18
    assert sum(1 for _ in enumerate_all(4)) == 166


def test_census_matches_naive_filter():
    for n in (1, 2, 3):
        naive = oracles.naive_hyperspace_vectors(n)
        ours = [h.bits for h in enumerate_all(n)]
        assert ours == naive


def test_enumeration_is_ascending_and_unique():
    for n in (2, 3, 4):
        seen = [h.bits for h in enumerate_all(n)]
        assert seen == sorted(set(seen))


def test_enumeration_bounds():
    with pytest.raises(InputError):
        list(enumerate_all(0))
    with pytest.raises(InputError):
        list(enumerate_all(7))


def test_upset_words_match_scalar_reference():
    for n in (1, 2, 3, 4, 5):
        words = upset_words(n).tolist()
        assert words == list(oracles.iter_upset_bits(n))
        assert len(words) == oracles.monotone_count(n) - 2


def test_upset_words_n6_strictly_ascending(census6):
    words = census6
    assert words.dtype == np.uint64
    assert len(words) == 7828352
    assert bool(np.all(words[1:] > words[:-1]))
    assert int(words[-1]) == ((1 << 64) - 1) ^ 1    # every non-empty set



# -- word gathers -------------------------------------------------------------------

def check_gather(words, index):
    got = _gather_words(words, index)
    assert got.shape == (len(index), len(words)) and got.dtype == np.uint64
    assert np.array_equal(got, oracles.bit_gather_words(words, index))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [1, 31, 32, 33, 65])
def test_gather_words_matches_bit_gather_on_census(n, batch):
    rng = np.random.default_rng(100 * n + batch)
    check_gather(upset_words(n), rng.integers(0, 1 << n, size=(batch, 64)))


@pytest.mark.parametrize("batch", [1, 31, 32, 33, 65])
def test_gather_words_matches_bit_gather_on_arbitrary_words(batch):
    rng = np.random.default_rng(batch)
    words = np.concatenate([rng.integers(0, 1 << 64, size=200, dtype=np.uint64,
                                         endpoint=False),
                            np.array([0, 1, 1 << 63, (1 << 64) - 1], dtype=np.uint64)])
    assert (words >> np.uint64(63)).any()
    index = rng.integers(0, 64, size=(batch, 64))
    index[0] = 63                       # one source bit for every output bit
    index[-1, ::2] = np.arange(63, -1, -2)
    index[-1, 1::2] = index[-1, ::2]    # each source bit twice
    check_gather(words, index)
    check_gather(words[:1], index)

@pytest.mark.parametrize("top", [7, 15, 31])
def test_gather_words_reads_only_the_indexed_bytes(top):
    # words with every high byte set, and indices that read their first bytes only
    rng = np.random.default_rng(top)
    words = rng.integers(0, 1 << 64, size=300, dtype=np.uint64, endpoint=False)
    words |= np.uint64(0xFFFF_FFFF_0000_0000) >> np.uint64(rng.integers(0, 8))
    words = np.concatenate([words, np.array([(1 << 64) - 1, 1 << 63], dtype=np.uint64)])
    index = rng.integers(0, top + 1, size=(33, 64))
    index[0, 5] = top
    check_gather(words, index)
    check_gather(words[:1], index[:1])


# -- the up-set arrays ------------------------------------------------------------------

def test_upsets_kept_read_only_up_to_five_points(census6):
    assert len(census6) == 7828352
    assert sorted(hyperspaces_mod._UPSETS) == [0, 1, 2, 3, 4, 5]
    for m, words in hyperspaces_mod._UPSETS.items():
        assert _upsets(m) is words
        with pytest.raises(ValueError):
            words[0] = 1
    assert _upsets(6) is not _upsets(6)       # 63 MB: never kept


def test_census_table_builds_each_upset_array_once(monkeypatch):
    steps = []
    real = hyperspaces_mod._half_cube
    monkeypatch.setattr(hyperspaces_mod, "_UPSETS", {})
    monkeypatch.setattr(hyperspaces_mod, "_half_cube",
                        lambda words, bounds, i: steps.append(i) or real(words, bounds, i))
    _census_flags.__wrapped__(5)
    assert steps == [0, 1, 2, 3, 4]


# -- literals ----------------------------------------------------------------------------

def test_literal_format(z5):
    h = generate(5, masks(5, (0, 1, 2), (0, 1, 4)))
    assert format_hyperspace(h, z5.names) == "<[0,1,2],[0,1,4]>"


def test_literal_parse_named():
    names = ("e", "a", "b")
    h = parse_hyperspace("<[e,a],[b]>", 3, names)
    assert h == generate(3, masks(3, (0, 1), (2,)))


@pytest.mark.parametrize("text", ["<[0, 1],[2]>", "< [0,1],[2] >", "<[0,1], [2]>",
                                  "<[0,1] ,[2]>", " <  [ 0 , 1 ]  ,  [2]\t>"])
def test_literal_parse_whitespace(text):
    assert parse_hyperspace(text, 3, ("0", "1", "2")) == generate(3, masks(3, (0, 1), (2,)))


@pytest.mark.parametrize("bad,message", [
    ("<[0],x>", "expected '[' at position 4 in '<[0],x>'"),
    ("<[0], x>", "expected '[' at position 4 in '<[0], x>'"),
    ("<[0] x>", "expected ',' between sets in '<[0] x>'"),
    ("<[0],>", "trailing ',' in '<[0],>'"),
    ("<[0], ,[1]>", "expected '[' at position 4 in '<[0], ,[1]>'"),
])
def test_literal_parse_error_messages(bad, message):
    with pytest.raises(InputError) as err:
        parse_hyperspace(bad, 3, ("0", "1", "2"))
    assert str(err.value) == message


def builtins_up_to_five():
    yield from (build_builtin(kind, n) for kind in ("cyclic", "left-zero", "right-zero")
                for n in range(1, 6))
    yield build_builtin("klein-4", 4)


def test_format_words_matches_format_hyperspace_on_class_censuses():
    for g in builtins_up_to_five():
        bounded = [(token, k) for token in ("linked", "maxlinked") for k in range(2, g.n + 2)]
        for token, k in [("all", None), ("filters", None), ("ultrafilters", None),
                         ("centered", None), ("shiftinv", None), *bounded]:
            words = class_words(g, token, k)
            assert format_words(g.n, words, g.names) == [
                format_hyperspace(Hyperspace._raw(g.n, w), g.names) for w in words.tolist()
            ], (g.name, token, k)


def test_format_words_matches_format_hyperspace_n6_named(census6):
    names = ["id", "r60", "r120", "r180", "r240", "r300"]
    g = parse_groupoid(json.dumps({"elements": names, "table": [
        [names[(i + j) % 6] for j in range(6)] for i in range(6)]}))
    rng = np.random.default_rng(6)
    words = np.concatenate([census6[:3], census6[-3:],
                            census6[rng.integers(0, len(census6), 3000)]])
    assert format_words(6, words, g.names) == [
        format_hyperspace(Hyperspace._raw(6, w), g.names) for w in words.tolist()]
    assert format_words(6, census6[-1:], g.names) == ["<" + ",".join(
        f"[{name}]" for name in names) + ">"]


def test_format_words_of_no_words():
    assert format_words(5, np.array([], dtype=np.uint64), tuple("abcde")) == []


@given(hyperspaces(5))
def test_literal_roundtrip(h):
    names = tuple(str(i) for i in range(5))
    assert parse_hyperspace(format_hyperspace(h, names), 5, names) == h


@pytest.mark.parametrize("bad", [
    "", "[0]", "<>", "<[]>", "<[0],>", "<[0][1]>", "<[q]>", "<[0", "<0,1>",
])
def test_literal_parse_errors(bad):
    with pytest.raises(InputError):
        parse_hyperspace(bad, 3, ("0", "1", "2"))


def test_repr_uses_minimal_sets():
    # minimal sets print in ascending mask order: {0,1} is mask 3, {2} is mask 4
    h = generate(3, masks(3, (0, 1), (2,)))
    assert repr(h) == "<{0,1},{2}>"
