import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gspace import (BudgetExceeded, Groupoid, InputError, build_builtin,
                    enumerate_all, generate, induced_map, largest, left_shift,
                    preimage_shift, principal, product, product_via_base,
                    smallest, subset_mask)
from gspace.products import _image_table, _preimage_table, product_transform


def masks(n, *sets):
    return [subset_mask(n, s) for s in sets]


def hyperspaces(n, max_base=3):
    return st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_base) \
             .map(lambda base: generate(n, base))


# -- shifts ------------------------------------------------------------------------

def test_preimage_shift(z3):
    assert preimage_shift(z3, 1, 0b001) == 0b100       # 1 + 2 = 0
    assert preimage_shift(z3, 2, 0b111) == 0b111       # full pulls back to full
    lz = build_builtin("left-zero", 2)
    assert preimage_shift(lz, 0, 0b10) == 0            # row constant 0, misses {1}
    with pytest.raises(InputError):
        preimage_shift(z3, 5, 1)


def test_subset_maps_match_definition(magma3):
    # pre[x][A] = {y : x * y in A} and img[x][A] = {x * y : y in A}, per mask
    carriers = [build_builtin(name, n) for name in ("cyclic", "left-zero", "right-zero")
                for n in range(1, 6)] + [build_builtin("klein-4", 4), magma3]
    for g in carriers:
        pre, img = _preimage_table(g), _image_table(g)
        for x, row in enumerate(g.table):
            for a in range(1 << g.n):
                ys = [y for y in range(g.n) if (a >> y) & 1]
                assert pre[x][a] == sum(1 << y for y in range(g.n) if (a >> row[y]) & 1)
                assert img[x][a] == sum(1 << z for z in {row[y] for y in ys})


def test_subset_maps_match_definition_up_to_ten_points():
    # the doubling build against the set definitions, point by point
    for g in (build_builtin(name, n) for name in ("cyclic", "left-zero")
              for n in range(1, 11)):
        pre, img = _preimage_table(g), _image_table(g)
        for x, row in enumerate(g.table):
            assert len(pre[x]) == len(img[x]) == 1 << g.n
            for a in range(1 << g.n):
                ys = {y for y in range(g.n) if (a >> y) & 1}
                assert pre[x][a] == sum(1 << y for y in range(g.n) if row[y] in ys)
                assert img[x][a] == sum(1 << z for z in {row[y] for y in ys})


def test_left_shift(z2, z3):
    assert left_shift(z2, 1, largest(2)) == largest(2)
    assert left_shift(z2, 1, smallest(2)) == smallest(2)
    assert left_shift(z3, 1, principal(3, 0)) == principal(3, 1)


def test_left_shift_consistency_exhaustive(z3, g3_all):
    for a in range(3):
        pa = principal(3, a)
        for f in g3_all:
            assert product(z3, pa, f) == left_shift(z3, a, f)


@settings(max_examples=40)
@given(st.integers(0, 4), hyperspaces(5))
def test_left_shift_consistency_random(a, f):
    z5 = build_builtin("cyclic", 5)
    assert product(z5, principal(5, a), f) == left_shift(z5, a, f)


# -- the right-translation transform --------------------------------------------------

def seeded_magma(n, seed):
    """A random operation table on n points that is not associative."""
    rnd = random.Random(f"magma-{n}-{seed}")
    while True:
        table = [[rnd.randrange(n) for _ in range(n)] for _ in range(n)]
        g = Groupoid([str(i) for i in range(n)], table, f"magma:{n}")
        if not g.associative:
            return g


def seeded_families(n, count, seed):
    rnd = random.Random(f"families-{n}-{seed}")
    return [generate(n, [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 4))])
            for _ in range(count)]


def test_transform_matches_oracle_exhaustive_small(magma3):
    # every V of G(n), n <= 3, over every builtin of that size: at n = 1 and
    # n = 2 the per-point gathers have only 2 and 4 entries
    carriers = [build_builtin(name, n) for name in ("cyclic", "left-zero", "right-zero")
                for n in (1, 2, 3)] + [magma3]
    for g in carriers:
        for v in enumerate_all(g.n):
            assert list(product_transform(g, v)) == oracles.naive_product_transform(g, v)


@pytest.mark.parametrize("n, count", [(7, 24), (10, 8), (12, 3)])
def test_transform_matches_oracle_seeded(n, count):
    carriers = [build_builtin(name, n) for name in ("cyclic", "left-zero", "right-zero")]
    for g in carriers + [seeded_magma(n, 1)]:
        for v in seeded_families(n, count, g.name):
            assert list(product_transform(g, v)) == oracles.naive_product_transform(g, v)


def test_transform_matches_oracle_at_the_carrier_cap():
    # all 16 lanes in use; the scalar oracle takes about 2 s for this one V
    g = build_builtin("cyclic", 16)
    v = generate(16, [0b1011_0000_0000_0001, 0b0000_0110_1100_0000, 0b0100_0000_0011_1010])
    assert list(product_transform(g, v)) == oracles.naive_product_transform(g, v)


def test_product_matches_via_base_seeded_n7_n8():
    checked = 0
    for n in (7, 8):
        g = build_builtin("cyclic", n)
        fams = seeded_families(n, 40, "via-base")
        for u, v in zip(fams[::2], fams[1::2]):
            try:
                want = product_via_base(g, u, v, budget=20_000)
            except BudgetExceeded:
                continue
            assert product(g, u, v) == want
            checked += 1
    assert checked >= 20


# -- the product and its oracle ------------------------------------------------------

def test_product_of_points_is_the_carrier_product(z3):
    assert product(z3, principal(3, 1), principal(3, 2)) == principal(3, 0)
    assert product_via_base(z3, principal(3, 1), principal(3, 2)) == principal(3, 0)


def test_product_published_census_entry(z3):
    # In the published seven-term census of G(Z3) the row x[-2] = e ^ a,
    # column x[2] entry is x[1] = e v (a ^ a~). The printed term list has
    # x[2] = e v a, which contradicts the printed table at exactly this
    # cell; the consistent reading is x[2] = e v a~ (see gspace.verify).
    e, a, ai = (principal(3, i) for i in range(3))
    x1 = e | (a & ai)
    assert product(z3, e & a, e | ai) == x1
    # the literal term pair instead lands on the +1 translate of x1,
    # confirmed by both product forms
    literal = product(z3, e & a, e | a)
    assert literal == product_via_base(z3, e & a, e | a)
    assert literal == a | (e & ai)
    assert literal != x1


def test_product_triple_linked_witness(z5):
    L = generate(5, masks(5, (0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4)))
    sq = product(z5, L, L)
    four_subsets = [m for m in range(1, 32) if bin(m).count("1") == 4]
    assert sq == generate(5, four_subsets)


def test_product_result_is_valid_even_without_structure():
    lz = build_builtin("left-zero", 3)
    u = generate(3, masks(3, (0, 1)))
    v = generate(3, masks(3, (2,)))
    w = product(lz, u, v)
    # validating constructor accepts the raw result
    from gspace import Hyperspace
    assert Hyperspace(3, w.bits) == w


def test_oracle_equality_exhaustive_z2(z2, g2_all):
    for u in g2_all:
        for v in g2_all:
            assert product(z2, u, v) == product_via_base(z2, u, v)


def test_oracle_equality_exhaustive_z3(z3, g3_all):
    for u in g3_all:
        for v in g3_all:
            assert product(z3, u, v) == product_via_base(z3, u, v)


def test_oracle_equality_nonassociative_magma(magma3):
    for u in enumerate_all(3):
        for v in enumerate_all(3):
            assert product(magma3, u, v) == product_via_base(magma3, u, v)


def test_product_matches_naive_set_model(z3, g3_all):
    # third, representation-independent implementation on a small sample
    rnd = random.Random(5)
    for _ in range(40):
        u, v = rnd.choice(g3_all), rnd.choice(g3_all)
        fam = oracles.naive_product_base(
            z3.table, oracles.family_of(u), oracles.family_of(v))
        assert oracles.family_bits(3, fam) == product(z3, u, v).bits


def test_via_base_budget(z5):
    # min G(X) has the full carrier as its minimal set, so the selector count
    # is 5^5 against max G(X)
    with pytest.raises(BudgetExceeded):
        product_via_base(z5, smallest(5), largest(5), budget=10)


@st.composite
def magma_and_pair(draw):
    n = draw(st.integers(2, 4))
    table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    from gspace import Groupoid
    g = Groupoid([str(i) for i in range(n)], table)
    u = draw(hyperspaces(n))
    v = draw(hyperspaces(n))
    return g, u, v


@settings(max_examples=80)
@given(magma_and_pair())
def test_oracle_and_transversality_on_random_magmas(gu):
    # both product forms and the transversality homomorphism hold for
    # arbitrary binary operations, not just groups
    g, u, v = gu
    p = product(g, u, v)
    assert p == product_via_base(g, u, v)
    assert p.transversal() == product(g, u.transversal(), v.transversal())


def test_carrier_mismatch(z2, z3):
    with pytest.raises(InputError):
        product(z3, principal(2, 0), principal(3, 0))
    with pytest.raises(InputError):
        product(z2, principal(3, 0), principal(3, 0))


# -- algebraic laws --------------------------------------------------------------------

def test_transversality_homomorphism_exhaustive(z3, g3_all):
    for u in g3_all:
        for v in g3_all:
            assert product(z3, u, v).transversal() == \
                product(z3, u.transversal(), v.transversal())


@settings(max_examples=60)
@given(hyperspaces(4), hyperspaces(4))
def test_transversality_homomorphism_random(u, v):
    z4 = build_builtin("cyclic", 4)
    assert product(z4, u, v).transversal() == \
        product(z4, u.transversal(), v.transversal())


@settings(max_examples=60)
@given(hyperspaces(3), hyperspaces(3), hyperspaces(3))
def test_right_distributivity(u, v, w):
    z3 = build_builtin("cyclic", 3)
    assert product(z3, u & v, w) == product(z3, u, w) & product(z3, v, w)
    assert product(z3, u | v, w) == product(z3, u, w) | product(z3, v, w)


@settings(max_examples=60)
@given(st.integers(0, 3), hyperspaces(4), hyperspaces(4))
def test_left_distributivity_at_points(a, v, w):
    z4 = build_builtin("cyclic", 4)
    pa = principal(4, a)
    assert product(z4, pa, v | w) == product(z4, pa, v) | product(z4, pa, w)
    assert product(z4, pa, v & w) == product(z4, pa, v) & product(z4, pa, w)


def test_left_distributivity_fails_off_points(z3, g3_all):
    # exhaustive search for a witness that the left law needs a principal
    # left argument
    witness = None
    for u in g3_all:
        if witness:
            break
        for v in g3_all:
            if witness:
                break
            for w in g3_all:
                if product(z3, u, v | w) != product(z3, u, v) | product(z3, u, w):
                    witness = (u, v, w)
                    break
    assert witness is not None, "left distributivity held everywhere on G(Z3)"


def test_associativity_exhaustive_z2(z2, g2_all):
    for u, v, w in itertools.product(g2_all, repeat=3):
        assert product(z2, product(z2, u, v), w) == product(z2, u, product(z2, v, w))


def test_associativity_sampled_z3_z4_z5(z3):
    rnd = random.Random(11)
    g3 = sorted(enumerate_all(3))
    for _ in range(300):
        u, v, w = (rnd.choice(g3) for _ in range(3))
        assert product(z3, product(z3, u, v), w) == product(z3, u, product(z3, v, w))
    for n in (4, 5):
        g = build_builtin("cyclic", n)
        for _ in range(150):
            base = lambda: [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 3))]
            u, v, w = generate(n, base()), generate(n, base()), generate(n, base())
            assert product(g, product(g, u, v), w) == product(g, u, product(g, v, w))


def test_associativity_fails_for_nonassociative_carrier(magma3):
    # subtraction mod 3 is not associative; a witness triple must exist
    # (the points themselves already witness it)
    p = [principal(3, i) for i in range(3)]
    u, v, w = p[1], p[1], p[1]
    lhs = product(magma3, product(magma3, u, v), w)
    rhs = product(magma3, u, product(magma3, v, w))
    assert lhs != rhs


# -- induced maps -------------------------------------------------------------------------

def test_induced_map_examples(z3, z6):
    mod3 = [x % 3 for x in range(6)]
    assert induced_map(mod3, z6, z3, principal(6, 4)) == principal(3, 1)
    assert induced_map(mod3, z6, z3, generate(6, masks(6, (0, 3)))) == principal(3, 0)
    ident = list(range(3))
    for f in enumerate_all(3):
        assert induced_map(ident, z3, z3, f) == f


def test_induced_map_gather_identity(z3, z6):
    # membership form: B belongs to the image iff the preimage of B belongs
    # to the source family
    mod3 = [x % 3 for x in range(6)]
    rnd = random.Random(3)
    pre = [subset_mask(6, [x for x in range(6) if (b >> (x % 3)) & 1])
           for b in range(8)]
    for _ in range(50):
        f = generate(6, [rnd.randrange(1, 64) for _ in range(rnd.randint(1, 3))])
        img = induced_map(mod3, z6, z3, f)
        for b in range(1, 8):
            assert ((img.bits >> b) & 1) == ((f.bits >> pre[b]) & 1)


def test_induced_map_requires_valid_mapping(z2, z3):
    with pytest.raises(InputError):
        induced_map([0, 1, 5], z3, z3, principal(3, 0))
    with pytest.raises(InputError):
        induced_map([0], z3, z3, principal(3, 0))
    with pytest.raises(InputError):
        induced_map([0, 1, 1], z3, z3, principal(3, 0), require_homomorphism=True)


def test_functoriality_random_pairs(z3, z6):
    mod3 = [x % 3 for x in range(6)]
    rnd = random.Random(17)
    for _ in range(200):
        u = generate(6, [rnd.randrange(1, 64) for _ in range(rnd.randint(1, 3))])
        v = generate(6, [rnd.randrange(1, 64) for _ in range(rnd.randint(1, 3))])
        lhs = induced_map(mod3, z6, z3, product(z6, u, v))
        rhs = product(z3, induced_map(mod3, z6, z3, u), induced_map(mod3, z6, z3, v))
        assert lhs == rhs


def test_functoriality_exhaustive_two_minset(z3, z6):
    # exhaustive over every pair of hyperspaces with at most two minimal
    # sets, phrased by columns: for fixed V both sides are bit gathers of U,
    # so comparing the gathered column bitsets checks all U at once
    from gspace.products import product_transform

    singles = [generate(6, [a]) for a in range(1, 64)]
    pairs = [generate(6, [a, b])
             for a in range(1, 64) for b in range(a + 1, 64)
             if a & b != a and a & b != b]
    pool = singles + pairs
    assert len(pool) == 1414

    cols = [0] * 64
    for i, h in enumerate(pool):
        for p in range(64):
            if (h.bits >> p) & 1:
                cols[p] |= 1 << i
    mod3 = [x % 3 for x in range(6)]
    hinv = [subset_mask(6, [x for x in range(6) if (b >> (x % 3)) & 1])
            for b in range(8)]
    for v in pool:
        t_v = product_transform(z6, v)
        lhs_gather = [t_v[hinv[b]] for b in range(8)]
        w_bits = 0
        for b in range(8):
            if (v.bits >> hinv[b]) & 1:
                w_bits |= 1 << b
        from gspace import Hyperspace
        t_w = product_transform(z3, Hyperspace(3, w_bits))
        rhs_gather = [hinv[t_w[b]] for b in range(8)]
        for b in range(8):
            if lhs_gather[b] != rhs_gather[b]:
                assert cols[lhs_gather[b]] == cols[rhs_gather[b]], (v, b)
