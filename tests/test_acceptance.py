"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 asserts the published transversal-semigroup count 9 for G(Z3);
exhaustive computation (cross-checked by an independent brute force in
test_structure) finds 3, so that single assertion is expected to fail. See
gspace.verify and README.md ("Tests and the acceptance suite") for the full
account.
"""

import itertools
import random
import time

import oracles
from gspace import (build_builtin, center, center_of_gx, classify,
                    enumerate_all, enumerate_class, find_sections, generate,
                    is_homomorphism, is_k_linked, is_maximal_k_linked,
                    is_shift_invariant, lambda_view, largest,
                    maximal_linked_families, mask_elements, minimal_ideal,
                    minimal_left_ideals, orbits, principal, product,
                    product_via_base, smallest, special_elements,
                    subset_mask, subsemigroup_view, are_isomorphic)
from gspace.verify import Z3_CHAIN_TABLE, _z3_chain


def _report(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")


def _random_hyperspace(rnd, n, max_base=3):
    return generate(n, [rnd.randrange(1, 1 << n)
                        for _ in range(rnd.randint(1, max_base))])


# -- criterion 1: census ------------------------------------------------------------

def test_criterion_1_census():
    counts = {n: sum(1 for _ in enumerate_all(n)) for n in (2, 3, 4, 5)}
    ok = counts[2] == 4 and counts[3] == 18
    ok = ok and counts[4] == oracles.monotone_count(4) - 2 == 166
    ok = ok and counts[5] == oracles.monotone_count(5) - 2
    _report(1, "census", ok)
    assert counts[2] == 4
    assert counts[3] == 18
    assert counts[4] == oracles.monotone_count(4) - 2 == 166
    assert counts[5] == oracles.monotone_count(5) - 2 == 7579


# -- criterion 2: G(Z3) structure ------------------------------------------------------

def test_criterion_2_g3_structure(z3, g3_all, g3_view):
    core = enumerate_class(z3, "shiftinv")
    spec = special_elements(g3_view)
    dec = orbits(z3, g3_all)
    kern = sorted(g3_all[i] for i in minimal_ideal(g3_view))
    ok = (len(core) == 3 and len(spec.idempotents) == 6
          and g3_all[spec.identity] == principal(3, 0)
          and len(dec.orbits) == 8 and kern == core)
    _report(2, "G(Z3) structure", ok)
    assert len(core) == 3
    assert len(spec.idempotents) == 6
    assert g3_all[spec.identity] == principal(3, 0)
    assert len(dec.orbits) == 8
    assert kern == core


# -- criterion 3: the seven-element chain table ----------------------------------------

def test_criterion_3_chain_table(z3):
    labels = [-3, -2, -1, 0, 1, 2, 3]

    def table_of(chain):
        pos = {h.bits: labels[i] for i, h in enumerate(chain)}
        return [[pos.get(product(z3, u, v).bits) for v in chain] for u in chain]

    corrected = table_of(_z3_chain(corrected=True))
    mismatches = [(labels[i], labels[j])
                  for i in range(7) for j in range(7)
                  if corrected[i][j] != Z3_CHAIN_TABLE[i][j]]
    literal = table_of(_z3_chain(corrected=False))
    literal_bad = [(labels[i], labels[j])
                   for i in range(7) for j in range(7)
                   if literal[i][j] != Z3_CHAIN_TABLE[i][j]]
    ok = mismatches == [] and literal_bad == [(-2, 2), (2, -2)]
    _report(3, "seven-element chain table, 49 entries", ok)
    assert mismatches == [], f"corrected chain disagrees at {mismatches}"
    # the published term list itself is inconsistent with the published table
    # at exactly the two cells involving its x2 entry
    assert literal_bad == [(-2, 2), (2, -2)]


# -- criterion 4: transversal sections ---------------------------------------------------

def _section_view(search, sec):
    view = search.decomposition.view
    return subsemigroup_view(view.groupoid, [view.elements[i] for i in sec])


def test_criterion_4_sections(z2, z3, z5, g2_all, g3_all):
    s2 = find_sections(z2, g2_all)
    ok2 = len(s2.sections) == 1

    s3 = find_sections(z3, g3_all)
    iso_ok = all(
        are_isomorphic(_section_view(s, sec), s.decomposition.quotient) is not None
        for s in (s2, s3) for sec in s.sections)

    t0 = time.monotonic()
    lam5 = maximal_linked_families(5)
    s5 = find_sections(z5, lam5)
    elapsed = time.monotonic() - t0
    ok5 = len(s5.sections) == 0 and elapsed < 60.0

    ok = ok2 and iso_ok and ok5 and len(s3.sections) == 9
    _report(4, "transversal sections", ok)
    assert ok2, "G(Z2) must have exactly one transversal semigroup"
    assert iso_ok, "every found section must be isomorphic to the quotient"
    assert ok5, f"lambda(Z5) sections: {len(s5.sections)} in {elapsed:.1f}s"
    assert len(s3.sections) == 9, (
        f"published value 9, computed {len(s3.sections)}: exhaustive search "
        f"over all 243 systems of orbit representatives (independently "
        f"brute-forced in test_structure) finds exactly "
        f"{len(s3.sections)} product-closed transversals, each isomorphic "
        f"to the quotient; the published count could not be reproduced "
        f"under any operand-order convention, and the published term list "
        f"is itself inconsistent with its own 7x7 table (criterion 3). "
        f"See README.md, \"Tests and the acceptance suite\".")


# -- criterion 5: the maximal 3-linked witness -----------------------------------------------

def test_criterion_5_triple_linked_square(z5):
    L = generate(5, [subset_mask(5, s) for s in
                     ((0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4))])
    sq = product(z5, L, L)
    assert sq == product_via_base(z5, L, L)
    published = [{1, 2, 4, 5}, {0, 2, 3, 4}, {0, 1, 3, 4}, {0, 1, 2, 4},
                 {0, 1, 2, 3}]
    computed = [set(mask_elements(m)) for m in sq.minimal_sets()]
    common = [s for s in computed if s in published]
    comp_only = [s for s in computed if s not in published]
    pub_only = [s for s in published if s not in computed]
    print(f"  L o L computed minimal sets: {sorted(map(sorted, computed))}")
    print(f"  published member list:       {sorted(map(sorted, published))}")
    print(f"  diff: {len(common)} common; computed-only "
          f"{sorted(map(sorted, comp_only))}; published-only "
          f"{sorted(map(sorted, pub_only))} (out-of-carrier entries included)")
    ok = (is_maximal_k_linked(L, 3) and is_k_linked(sq, 3)
          and not is_maximal_k_linked(sq, 3))
    _report(5, "maximal 3-linked witness", ok)
    assert is_maximal_k_linked(L, 3)
    assert is_k_linked(sq, 3)
    assert not is_maximal_k_linked(sq, 3)


# -- criterion 6: the triangle zero and Z6 left ideals ------------------------------------------

def test_criterion_6_lambda_structure(z3, z6):
    lam3 = maximal_linked_families(3)
    view3 = subsemigroup_view(z3, lam3)
    spec = special_elements(view3)
    tri = generate(3, [subset_mask(3, s) for s in ((0, 1), (0, 2), (1, 2))])
    ok = len(lam3) == 4 and list(spec.zeros) == [view3.index_of(tri)]

    mod3 = [x % 3 for x in range(6)]
    assert is_homomorphism(z6, z3, mod3)
    view6 = lambda_view(z6)
    ideals = minimal_left_ideals(view6)
    ults = {view6.index_of(principal(6, x)) for x in range(6)}
    disjoint = bool(ideals) and all(not (set(i) & ults) for i in ideals)
    ok = ok and view6.closed and disjoint
    _report(6, "triangle zero and Z6 left ideals", ok)
    assert len(lam3) == 4
    assert list(spec.zeros) == [view3.index_of(tri)]
    assert view6.closed and len(view6.elements) == 2646
    assert disjoint


# -- criterion 7: algebraic laws -----------------------------------------------------------------

def test_criterion_7_algebraic_laws(z2, z3, g2_all, g3_all):
    violations = []

    def check(name, cond):
        if not cond:
            violations.append(name)

    # involution and De Morgan: exhaustive n <= 3
    for n, pool in ((1, list(enumerate_all(1))), (2, g2_all), (3, g3_all)):
        for u in pool:
            check("involution", u.transversal().transversal() == u)
        for u in pool:
            for v in pool:
                check("de-morgan-join",
                      (u | v).transversal() == u.transversal() & v.transversal())
                check("de-morgan-meet",
                      (u & v).transversal() == u.transversal() | v.transversal())

    rnd = random.Random(2024)
    for n in (4, 5):
        for _ in range(300):
            u = _random_hyperspace(rnd, n)
            check("involution-random", u.transversal().transversal() == u)
            v = _random_hyperspace(rnd, n)
            check("de-morgan-random",
                  (u | v).transversal() == u.transversal() & v.transversal())

    # transversality is a product homomorphism: exhaustive Z2/Z3, random Z4/Z5
    for g, pool in ((z2, g2_all), (z3, g3_all)):
        for u in pool:
            for v in pool:
                check("transversal-product",
                      product(g, u, v).transversal()
                      == product(g, u.transversal(), v.transversal()))
    for n in (4, 5):
        g = build_builtin("cyclic", n)
        for _ in range(200):
            u, v = _random_hyperspace(rnd, n), _random_hyperspace(rnd, n)
            check("transversal-product-random",
                  product(g, u, v).transversal()
                  == product(g, u.transversal(), v.transversal()))

    # right distributivity over meet and join: exhaustive Z2, sampled Z3/Z4
    for u, v, w in itertools.product(g2_all, repeat=3):
        check("right-dist-meet",
              product(z2, u & v, w) == product(z2, u, w) & product(z2, v, w))
        check("right-dist-join",
              product(z2, u | v, w) == product(z2, u, w) | product(z2, v, w))
    for _ in range(2000):
        u, v, w = (rnd.choice(g3_all) for _ in range(3))
        check("right-dist-meet-z3",
              product(z3, u & v, w) == product(z3, u, w) & product(z3, v, w))
        check("right-dist-join-z3",
              product(z3, u | v, w) == product(z3, u, w) | product(z3, v, w))
    z4 = build_builtin("cyclic", 4)
    for _ in range(300):
        u, v, w = (_random_hyperspace(rnd, 4) for _ in range(3))
        check("right-dist-z4",
              product(z4, u & v, w) == product(z4, u, w) & product(z4, v, w)
              and product(z4, u | v, w) == product(z4, u, w) | product(z4, v, w))

    # left distributivity at principal points
    for a in range(3):
        pa = principal(3, a)
        for v in g3_all:
            for w in g3_all:
                check("left-dist-point-join",
                      product(z3, pa, v | w)
                      == product(z3, pa, v) | product(z3, pa, w))
                check("left-dist-point-meet",
                      product(z3, pa, v & w)
                      == product(z3, pa, v) & product(z3, pa, w))

    # associativity on Z2..Z5 samples
    for u, v, w in itertools.product(g2_all, repeat=3):
        check("assoc-z2", product(z2, product(z2, u, v), w)
              == product(z2, u, product(z2, v, w)))
    for _ in range(1000):
        u, v, w = (rnd.choice(g3_all) for _ in range(3))
        check("assoc-z3", product(z3, product(z3, u, v), w)
              == product(z3, u, product(z3, v, w)))
    for n in (4, 5):
        g = build_builtin("cyclic", n)
        for _ in range(200):
            u, v, w = (_random_hyperspace(rnd, n) for _ in range(3))
            check(f"assoc-z{n}", product(g, product(g, u, v), w)
                  == product(g, u, product(g, v, w)))

    # the two product forms agree: exhaustive n <= 3 plus 10^4 random pairs
    # each for n in {4, 5}
    for g, pool in ((build_builtin("cyclic", 1), list(enumerate_all(1))),
                    (z2, g2_all), (z3, g3_all)):
        for u in pool:
            for v in pool:
                check("oracle-exhaustive",
                      product(g, u, v) == product_via_base(g, u, v))
    for n in (4, 5):
        g = build_builtin("cyclic", n)
        for _ in range(10_000):
            u, v = _random_hyperspace(rnd, n), _random_hyperspace(rnd, n)
            check(f"oracle-random-z{n}",
                  product(g, u, v) == product_via_base(g, u, v))

    _report(7, "algebraic law suite", not violations)
    assert not violations, f"law violations: {sorted(set(violations))}"


# -- criterion 8: theorem replays ---------------------------------------------------------------------

def test_criterion_8_theorem_replays(z2, z3, s3, magma3, g2_view, g3_view):
    violations = []

    def check(name, cond):
        if not cond:
            violations.append(name)

    # right zero iff shift-invariant, exhaustive over full views on 2 and 3
    # points (a group, a non-associative quasigroup, a non-quasigroup)
    for g in (z2, z3, magma3, build_builtin("left-zero", 3)):
        elems = sorted(enumerate_all(g.n))
        view = subsemigroup_view(g, elems)
        rz = set(special_elements(view).right_zeros)
        si = {i for i, f in enumerate(elems) if is_shift_invariant(g, f)}
        check(f"right-zero-iff-shift-invariant[{g.name}]", rz == si)

    # min/max membership in the core iff right solvability, on four
    # contrasting groupoids
    for g in (z2, z3, build_builtin("left-zero", 2),
              build_builtin("right-zero", 2)):
        core = set(enumerate_class(g, "shiftinv"))
        solvable = all(any(g.table[a][x] == b for x in range(g.n))
                       for a in range(g.n) for b in range(g.n))
        check(f"extremes-in-core[{g.name}]",
              (smallest(g.n) in core) == (largest(g.n) in core) == solvable)

    # commuting with both extremes forces principality (quasigroup carriers)
    for g, view in ((z2, g2_view), (z3, g3_view)):
        elems = view.elements
        mn, mx = smallest(g.n), largest(g.n)
        for f in elems:
            commutes = (product(g, f, mn) == product(g, mn, f)
                        and product(g, f, mx) == product(g, mx, f))
            is_point = classify(f).ultrafilter
            check(f"extremal-commutant-principal[{g.name}]",
                  commutes == is_point)

    # the center of the full semigroup is the center of the carrier
    for g, view in ((z2, g2_view), (z3, g3_view)):
        cen = sorted(view.elements[i] for i in center(view))
        want = sorted(principal(g.n, c) for c in g.center())
        check(f"center[{g.name}]", cen == want)
    check("center[symmetric-3]", center_of_gx(s3) == [principal(6, 0)])

    # left-cancelable elements are exactly the points (quasigroup carriers)
    for g, view in ((z2, g2_view), (z3, g3_view)):
        lc = {view.elements[i] for i in special_elements(view).left_cancelable}
        pts = {principal(g.n, x) for x in range(g.n)}
        check(f"left-cancelable[{g.name}]", lc == pts)

    _report(8, "theorem replays", not violations)
    assert not violations, f"violations: {violations}"


# -- criterion 9: class closures -------------------------------------------------------------------------

def test_criterion_9_class_closures(z2, z3):
    violations = []

    def closed(g, elems):
        pool = {f.bits for f in elems}
        return all(product(g, u, v).bits in pool for u in elems for v in elems)

    for g in (z2, z3):
        specs = [("filters", None), ("centered", None), ("ultrafilters", None),
                 ("maxlinked", 2)]
        specs += [("linked", k) for k in range(2, g.n + 1)]
        for token, k in specs:
            elems = enumerate_class(g, token, k)
            if not closed(g, elems):
                violations.append((g.name, token, k))

    # transversals of the filter and 2-linked subgroupoids stay subgroupoids
    for token, k in (("filters", None), ("linked", 2)):
        elems = enumerate_class(z3, token, k)
        duals = sorted({f.transversal() for f in elems})
        if not closed(z3, duals):
            violations.append(("cyclic:3", f"{token}-transversal", k))

    _report(9, "class closure suite", not violations)
    assert not violations, f"closure violations: {violations}"
