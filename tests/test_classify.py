import importlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gspace import (Hyperspace, InputError, build_builtin, classify, enumerate_all,
                    enumerate_class, generate, is_centered, is_k_linked,
                    is_maximal_k_linked, is_self_transversal,
                    is_shift_invariant, is_ultrafilter, largest,
                    maximal_linked_families, principal, product, smallest,
                    subset_mask)
from gspace.classify import _meet_transversal, class_words, parse_class_token
from gspace.hyperspaces import _upsets, upset_words


def masks(n, *sets):
    return [subset_mask(n, s) for s in sets]


def triangle(n=3):
    return generate(n, masks(n, (0, 1), (0, 2), (1, 2)))


def hyperspaces(n, max_base=4):
    return st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_base) \
             .map(lambda base: generate(n, base))


# -- single-family flags --------------------------------------------------------------

def test_principal_is_ultrafilter(z3):
    for x in range(3):
        flags = classify(principal(3, x), z3)
        assert flags.ultrafilter and flags.filter and flags.centered
        assert flags.linked_up_to == 3
        assert flags.maximal_k_linked == {2: True, 3: True}
        assert flags.self_transversal
        assert flags.shift_invariant is False


def test_triangle_flags(z3):
    flags = classify(triangle(), z3)
    assert flags.linked_up_to == 2
    assert flags.maximal_k_linked == {2: True, 3: False}
    assert not flags.centered and not flags.filter and not flags.ultrafilter
    assert flags.self_transversal
    assert flags.shift_invariant is True


def test_shift_invariance_of_extremes(z3):
    assert is_shift_invariant(z3, smallest(3))
    assert is_shift_invariant(z3, largest(3))
    lz = build_builtin("left-zero", 2)
    assert not is_shift_invariant(lz, smallest(2))
    assert not is_shift_invariant(lz, largest(2))


def test_shift_invariance_matches_set_model(z3, magma3, g3_all):
    for g in (z3, build_builtin("left-zero", 3), magma3):
        for f in g3_all:
            assert is_shift_invariant(g, f) == \
                oracles.naive_shift_invariant(g.table, oracles.family_of(f))


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_shift_invariance_matches_set_model_seeded(n):
    rnd = random.Random(f"shiftinv-{n}")
    for g in (build_builtin("cyclic", n), build_builtin("left-zero", n)):
        fams = [generate(n, [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 3))])
                for _ in range(60)]
        fams += enumerate_class(g, "shiftinv")      # the invariant side too
        for f in fams:
            assert is_shift_invariant(g, f) == \
                oracles.naive_shift_invariant(g.table, oracles.family_of(f)), (g.name, f)


def test_triple_linked_witness_flags(z5):
    L = generate(5, masks(5, (0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4)))
    assert is_maximal_k_linked(L, 3)
    assert not is_maximal_k_linked(L, 2)
    sq = product(z5, L, L)
    assert is_k_linked(sq, 3)
    assert not is_maximal_k_linked(sq, 3)
    assert classify(sq).maximal_k_linked[3] is False
    assert classify(L).maximal_k_linked[3] is True


def test_classify_without_groupoid():
    assert classify(triangle()).shift_invariant is None


# -- flag implications (the inclusion diagram) ---------------------------------------------

def test_flag_implications_exhaustive_small():
    for n in (1, 2, 3):
        for f in enumerate_all(n):
            flags = classify(f)
            if flags.ultrafilter:
                assert flags.filter
            if flags.filter:
                assert flags.centered
            if flags.centered:
                assert flags.linked_up_to == n
            # lambda = N2 cut down by self-transversality
            if n >= 2:
                assert flags.maximal_k_linked[2] == \
                    (is_k_linked(f, 2) and flags.self_transversal)
                assert flags.ultrafilter == (flags.filter and flags.maximal_k_linked[2])


@settings(max_examples=80)
@given(hyperspaces(5))
def test_flag_implications_random(f):
    flags = classify(f)
    if flags.ultrafilter:
        assert flags.filter
    if flags.filter:
        assert flags.centered
    assert flags.maximal_k_linked[2] == (is_k_linked(f, 2) and flags.self_transversal)


def test_k_linked_monotone_in_k():
    for f in enumerate_all(3):
        linked = [is_k_linked(f, k) for k in range(1, 4)]
        assert linked == sorted(linked, reverse=True)


def test_one_step_maximality_equals_bruteforce():
    # brute force: no strictly larger k-linked family in the census contains f
    for n in (2, 3):
        census = list(enumerate_all(n))
        for k in range(2, n + 1):
            klinked = [f for f in census if is_k_linked(f, k)]
            for f in census:
                brute = is_k_linked(f, k) and not any(
                    f.bits != g.bits and f.bits & g.bits == f.bits
                    for g in klinked)
                assert is_maximal_k_linked(f, k) == brute


def test_linkedness_matches_set_model():
    # every family on n <= 4 points and k = 1..n+1, against subfamilies of all
    # members; maximality by brute force over the census
    for n in (1, 2, 3, 4):
        census = list(enumerate_all(n))
        fams = [oracles.family_of(f) for f in census]
        linked = {k: [oracles.naive_k_linked(fam, k) for fam in fams]
                  for k in range(1, n + 2)}
        for i, f in enumerate(census):
            flags = classify(f)
            assert flags.linked_up_to == max(k for k in range(1, n + 1) if linked[k][i])
            assert flags.centered == oracles.naive_k_linked(fams[i], len(fams[i]))
            assert list(flags.maximal_k_linked) == list(range(2, n + 1))
            for k in range(1, n + 2):
                assert is_k_linked(f, k) == linked[k][i], (f, k)
                maximal = linked[k][i] and not any(
                    linked[k][j] and fams[i] < fams[j] for j in range(len(census)))
                assert is_maximal_k_linked(f, k) == maximal, (f, k)
                if k in flags.maximal_k_linked:
                    assert flags.maximal_k_linked[k] == maximal, (f, k)


def test_classify_wide_centered_family_n12():
    # every set holding point 0 and at least 6 points: 462 minimal sets, so
    # C(462, k) subfamilies of minimal sets per k
    f = generate(12, [1 | sum(1 << i for i in c)
                      for c in itertools.combinations(range(1, 12), 5)])
    assert len(f.minimal_sets()) == 462
    flags = classify(f)
    assert flags.linked_up_to == 12 and flags.centered
    # f lies strictly inside the principal ultrafilter of 0, so no k is maximal
    assert f.bits & ~principal(12, 0).bits == 0 and f != principal(12, 0)
    assert flags.maximal_k_linked == {k: False for k in range(2, 13)}


def test_classify_matches_intersection_levels_n_le_5(magma3):
    # the census table against the set-based levels on every family, the
    # dump with no default=: plain bools, ints and dicts in field order
    groupoids = [build_builtin(spec.split(":")[0], int(spec.split(":")[1]))
                 for spec in FILTER_GROUPOIDS] + [magma3]
    for n in (1, 2, 3, 4, 5):
        fams = list(enumerate_all(n))
        refs = [oracles.intersection_flags(f) for f in fams]
        for g in [None] + [g for g in groupoids if g.n == n]:
            for f, ref in zip(fams, refs):
                if g is not None:
                    ref = {**ref, "shift_invariant":
                           oracles.naive_shift_invariant(g.table, oracles.family_of(f))}
                assert json.dumps(vars(classify(f, g))) == json.dumps(ref), (g, f)


@pytest.mark.parametrize("n", [6, 7, 8, 10, 12])
def test_meet_chain_matches_intersection_levels_seeded(n):
    g, rnd = build_builtin("cyclic", n), random.Random(f"meet-chain-{n}")
    fams = [principal(n, 0), largest(n), smallest(n)]
    for _ in range(16):     # a few small sets, or many sets of about n/2 points
        size = rnd.choice([1, 2, 3, 2 * n])
        fams.append(generate(n, [rnd.getrandbits(n) & rnd.getrandbits(n) | 1 << rnd.randrange(n)
                                 if size > 3 else rnd.randrange(1, 1 << n)
                                 for _ in range(size)]))
    for f in fams:
        assert json.dumps(vars(classify(f, g))) == \
            json.dumps(oracles.intersection_flags(f, g.table)), f
        for k in range(1, n + 2):
            assert is_k_linked(f, k) == (0 not in oracles.intersection_levels(f, k)[-1]), (f, k)
            assert is_maximal_k_linked(f, k) == oracles.intersection_maximal(f, k), (f, k)


def test_classify_dense_families_n16():
    # the 9-sets meet pairwise (9 + 9 > 16) but three of them need not, and
    # F^T is the sets of at least 8 points, larger than F = J_1: no k is maximal
    nine = generate(16, [sum(1 << i for i in c) for c in itertools.combinations(range(16), 9)])
    flags = classify(nine)
    assert (flags.linked_up_to, flags.centered) == (2, False)
    assert flags.maximal_k_linked == {k: False for k in range(2, 17)}
    assert nine.transversal().minimal_sets() == tuple(sorted(
        sum(1 << i for i in c) for c in itertools.combinations(range(16), 8)))
    # the sets holding point 0 with at least 8 points: centered, strictly
    # inside the principal ultrafilter of 0, so no k is maximal
    zero = generate(16, [1 | sum(1 << i for i in c)
                         for c in itertools.combinations(range(1, 16), 7)])
    flags = classify(zero)
    assert (flags.linked_up_to, flags.centered) == (16, True)
    assert flags.maximal_k_linked == {k: False for k in range(2, 17)}


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (5, 6), (6, 5), (8, 5)])
def test_classify_checks_the_carrier(n, m):
    # on the census table (n <= 5) as on the meet chain
    with pytest.raises(InputError, match="carrier mismatch"):
        classify(principal(n, 0), build_builtin("cyclic", m))


def test_classify_and_predicates_at_n6_build_no_census(z6, monkeypatch):
    classify_mod = importlib.import_module("gspace.classify")
    built = []
    for name in ("upset_words", "_upsets"):
        real = getattr(classify_mod, name)
        monkeypatch.setattr(classify_mod, name, lambda n, real=real: built.append(n) or real(n))
    rnd = random.Random("n6-guard")
    fams = [principal(6, 0), largest(6), smallest(6), triangle(6)]
    fams += [generate(6, [rnd.randrange(1, 64) for _ in range(rnd.randint(1, 5))])
             for _ in range(20)]
    for f in fams:
        classify(f, z6)
        for k in range(1, 8):
            is_k_linked(f, k)
            is_maximal_k_linked(f, k)
    assert 6 not in built
    # the predicates stay on the chain at n = 5 too: no census table
    classify_mod._census_flags.cache_clear()
    for f in enumerate_class(build_builtin("cyclic", 5), "maxlinked", 3):
        assert is_k_linked(f, 3) and is_maximal_k_linked(f, 3)
    assert classify_mod._census_flags.cache_info().currsize == 0


def test_census_table_holds_under_a_megabyte(z5):
    classify_mod = importlib.import_module("gspace.classify")
    classify_mod._census_flags.cache_clear()
    classify_mod._shift_invariant_words.cache_clear()
    tracemalloc.start()
    try:
        flags = classify(principal(5, 0), z5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert flags.ultrafilter and flags.shift_invariant is False
    assert classify_mod._census_flags.cache_info().currsize == 1
    assert held < 1 << 20, held


def test_centered_census_n6_is_inside_a_point_word(z6, census6):
    # the definition: F lies inside the word of some point (its principal
    # ultrafilter), with the point words built here bit by bit
    words = census6
    inside = np.zeros(len(words), dtype=bool)
    for x in range(6):
        point = np.uint64(sum(1 << a for a in range(64) if (a >> x) & 1))
        inside |= (words & ~point) == 0
    assert np.array_equal(class_words(z6, "centered"), words[inside])


# -- censuses ----------------------------------------------------------------------------

def test_census_identity_against_monotone_oracle():
    for n in (1, 2, 3, 4):
        assert len(upset_words(n)) == oracles.monotone_count(n) - 2


def test_enumerate_class_counts(z3):
    assert len(enumerate_class(z3, "ultrafilters")) == 3
    assert len(enumerate_class(z3, "filters")) == 7
    assert len(enumerate_class(z3, "maxlinked", 2)) == 4
    assert len(enumerate_class(z3, "all")) == 18
    assert len(enumerate_class(z3, "centered")) == 10
    assert len(enumerate_class(z3, "shiftinv")) == 3


def test_centered_census_value(z3):
    # independent count: families all of whose members share a point
    count = sum(1 for f in enumerate_all(3) if is_centered(f))
    by_model = 0
    for v in oracles.naive_hyperspace_vectors(3):
        members = [{i for i in range(3) if (m >> i) & 1}
                   for m in range(1, 8) if (v >> m) & 1]
        if set.intersection(*members):
            by_model += 1
    assert count == by_model == 10


def test_maximal_linked_counts():
    for n, want in [(1, 1), (2, 2), (3, 4), (4, 12), (5, 81), (6, 2646)]:
        assert len(maximal_linked_families(n)) == want
    for n in (0, 7):
        with pytest.raises(InputError):
            maximal_linked_families(n)


def test_maximal_linked_n6_self_transversal():
    # OEIS A001206; the string-reversal transversal is independent of the
    # word gather that builds the families
    fams = maximal_linked_families(6)
    bits = [f.bits for f in fams]
    assert len(fams) == 2646
    assert all(a < b for a, b in zip(bits, bits[1:]))
    assert all(f.transversal() == f for f in fams)


def test_maximal_linked_fast_path_matches_filtering(z2, z3, z4, z5):
    for g in (z2, z3, z4, z5):
        fast = maximal_linked_families(g.n)
        slow = [f for f in enumerate_all(g.n) if is_maximal_k_linked(f, 2)]
        assert fast == slow


def test_maximal_linked_members_of_z3(z3):
    fams = maximal_linked_families(3)
    assert set(fams) == {principal(3, 0), principal(3, 1), principal(3, 2),
                         triangle()}


def test_filters_are_one_per_nonempty_subset(z3):
    fils = enumerate_class(z3, "filters")
    assert len({f.minimal_sets() for f in fils}) == 7
    assert all(len(f.minimal_sets()) == 1 for f in fils)
    # the direct construction agrees with predicate filtering of the census
    from gspace import is_filter
    assert fils == [f for f in enumerate_all(3) if is_filter(f)]
    ults = enumerate_class(z3, "ultrafilters")
    assert ults == [f for f in enumerate_all(3) if is_ultrafilter(f)]


def test_enumerate_class_ordering(z3):
    for token, k in [("all", None), ("linked", 2), ("maxlinked", 2),
                     ("filters", None)]:
        elems = enumerate_class(z3, token, k)
        assert elems == sorted(elems)


FILTER_GROUPOIDS = (
    [f"cyclic:{n}" for n in (1, 2, 3, 4, 5)] + [f"left-zero:{n}" for n in (1, 2, 3, 4, 5)]
    + [f"right-zero:{n}" for n in (1, 2, 3, 4, 5)] + ["klein-4:4"])


@pytest.mark.parametrize("spec", FILTER_GROUPOIDS)
def test_class_filters_match_predicates(spec):
    kind, _, size = spec.partition(":")
    g = build_builtin(kind, int(size))
    n = g.n
    census = list(enumerate_all(n))
    cases = [("centered", None, is_centered),
             ("shiftinv", None, lambda f: is_shift_invariant(g, f))]
    for k in range(2, n + 2):
        cases.append(("linked", k, lambda f, k=k: is_k_linked(f, k)))
        cases.append(("maxlinked", k, lambda f, k=k: is_maximal_k_linked(f, k)))
    for token, k, pred in cases:
        assert enumerate_class(g, token, k) == [f for f in census if pred(f)], (token, k)


def test_enumerate_class_deterministic_python_ints(z4):
    for token, k in [("all", None), ("centered", None), ("linked", 3),
                     ("maxlinked", 3), ("shiftinv", None)]:
        first = [f.bits for f in enumerate_class(z4, token, k)]
        assert first == [f.bits for f in enumerate_class(z4, token, k)]
        assert all(type(b) is int for b in first), token
    assert all(type(f.bits) is int for f in enumerate_all(4))


def test_enumerate_class_limits():
    g7 = build_builtin("cyclic", 7)
    with pytest.raises(InputError):
        enumerate_class(g7, "all")


def test_linked_census_counts_n6(z6):
    # the 3- and 4-linked families on 6 points, among 1,422,563 2-linked ones
    assert len(class_words(z6, "linked", 3)) == 59296
    assert len(class_words(z6, "linked", 4)) == 43483


def test_maximal_3_linked_census_n6(z6):
    words = class_words(z6, "maxlinked", 3)
    assert len(words) == 352
    assert all(is_maximal_k_linked(Hyperspace._raw(6, b), 3) for b in words.tolist())
    linked = class_words(z6, "linked", 3)
    assert np.isin(words, linked).all()
    rejected = np.setdiff1d(linked, words).tolist()
    for b in random.Random(3).sample(rejected, 300):
        assert not is_maximal_k_linked(Hyperspace._raw(6, b), 3)


def test_meet_transversal_matches_set_model():
    # tau_k(w): the sets meeting every intersection of at most k - 1 members,
    # on every up-set (the empty one and the one holding the empty set too)
    for m, ks in [(0, (2,)), (1, (2, 3)), (2, (2, 3, 4)), (3, (2, 3, 4, 5)),
                  (4, (2, 3, 4, 5, 6)), (5, (2, 3))]:
        words = _upsets(m)
        fams = [frozenset(frozenset(i for i in range(m) if (a >> i) & 1)
                          for a in range(1 << m) if (w >> a) & 1) for w in words.tolist()]
        for k in ks:
            got = _meet_transversal(words, m, k).tolist()
            assert got == [oracles.family_bits(m, oracles.naive_meet_transversal(m, f, k))
                           for f in fams], (m, k)


def linked_oracle(n, token, k, census):
    """The partition-mask census of a linked token, from the census words."""
    linked = census[oracles.linked_mask(n, n if token == "centered" else k, census)]
    return oracles.maximal_linked_words(n, k, linked) if token == "maxlinked" else linked


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_linked_censuses_match_partition_masks(n):
    # these classes do not read the groupoid: one carrier per n
    g, census = build_builtin("cyclic", n), upset_words(n)
    cases = [("centered", None)] + [(token, k) for k in range(2, n + 2)
                                    for token in ("linked", "maxlinked")]
    for token, k in cases:
        got = class_words(g, token, k)
        assert got.dtype == np.uint64
        assert got.tobytes() == linked_oracle(n, token, k, census).tobytes(), (token, k)


def test_linked_censuses_match_partition_masks_n6(z6, census6):
    census = census6
    for token, k in [("linked", 2), ("linked", 3), ("centered", None), ("maxlinked", 3)]:
        assert class_words(z6, token, k).tobytes() == \
            linked_oracle(6, token, k, census).tobytes(), (token, k)


def test_linked_censuses_skip_the_census_n6(z6, monkeypatch):
    # read off the up-sets on 5 points: no census, and a traced peak under a
    # third of the census's 63 MB
    def refuse(n):
        raise AssertionError("the census was built")

    monkeypatch.setattr(importlib.import_module("gspace.classify"), "upset_words", refuse)
    for token, k in [("linked", 3), ("centered", None), ("maxlinked", 3)]:
        tracemalloc.start()
        try:
            assert len(class_words(z6, token, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7828352 * 8 // 3, (token, peak)
    assert len(maximal_linked_families(6)) == 2646


def test_parse_class_token():
    assert parse_class_token("linked:3") == ("linked", 3)
    assert parse_class_token("all") == ("all", None)
    for bad in ("nope", "linked", "linked:x", "all:3", "maxlinked"):
        with pytest.raises(InputError):
            parse_class_token(bad)


# -- closure under the product ----------------------------------------------------------

def _closed_under_product(g, elems):
    pool = {f.bits for f in elems}
    return all(product(g, u, v).bits in pool
               for u in elems for v in elems)


@pytest.mark.parametrize("token,k", [
    ("filters", None), ("centered", None), ("linked", 2), ("linked", 3),
    ("maxlinked", 2), ("ultrafilters", None),
])
def test_classes_closed_under_product(z2, z3, token, k):
    for g in (z2, z3):
        kk = None if k is None else min(k, g.n)
        if token == "linked" and kk is not None and kk < 2:
            continue
        elems = enumerate_class(g, token, kk)
        assert _closed_under_product(g, elems), (g.name, token, kk)


def test_transversal_of_subgroupoid_is_subgroupoid(z3):
    # checked for the filters and the 2-linked families
    for token, k in [("filters", None), ("linked", 2)]:
        elems = enumerate_class(z3, token, k)
        duals = sorted({f.transversal() for f in elems})
        assert _closed_under_product(z3, duals), token


def test_maximal_3_linked_not_closed(z5):
    L = generate(5, masks(5, (0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4)))
    sq = product(z5, L, L)
    assert is_maximal_k_linked(L, 3) and not is_maximal_k_linked(sq, 3)
