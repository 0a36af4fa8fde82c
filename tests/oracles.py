"""Independent reference implementations used to freeze expected values.

Everything here stays deliberately naive and representation-distinct from
the package (families as frozensets of frozensets, membership vectors
filtered wholesale) so the fast paths have something honest to disagree
with.
"""

from __future__ import annotations

import itertools

import numpy as np


# -- monotone-function counting -------------------------------------------------

def monotone_truth_tables(n: int) -> list[int]:
    """All monotone boolean functions on n variables, by filtering all tables."""
    assert n <= 4, "wholesale filtering is only feasible up to 4 variables"
    nsub = 1 << n
    out = []
    for v in range(1 << nsub):
        ok = True
        for m in range(nsub):
            if (v >> m) & 1:
                for i in range(n):
                    s = m | (1 << i)
                    if s != m and not (v >> s) & 1:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(v)
    return out


def monotone_count(n: int) -> int:
    """Dedekind number M(n) for n <= 5, without the package's enumerator.

    n <= 4 by wholesale filtering; n = 5 by counting pointwise-ordered pairs
    of monotone 4-variable functions (f restricted to the two half-cubes).
    """
    if n <= 4:
        return len(monotone_truth_tables(n))
    if n == 5:
        m4 = monotone_truth_tables(4)
        return sum(1 for f0 in m4 for f1 in m4 if f0 & ~f1 == 0)
    raise ValueError("oracle supports n <= 5")


def iter_upset_bits(n: int):
    """Membership vectors of all hyperspaces on n points, ascending, by DFS.

    Masks are decided from 2^n - 2 down to 1 (the full carrier is preset,
    the empty set excluded), absent branch before present; a mask may be
    included only when all its immediate supersets already are. This emits
    every upward-closed family exactly once in ascending vector order.
    """
    assert n <= 5, "the scalar walk is the reference for n <= 5"
    full = (1 << n) - 1
    imm_sup = [[m | (1 << i) for i in range(n) if not (m >> i) & 1]
               for m in range(full)]
    stack = [(full - 1, 1 << full)]
    while stack:
        m, bits = stack.pop()
        while m >= 1:
            if all((bits >> s) & 1 for s in imm_sup[m]):
                stack.append((m - 1, bits | (1 << m)))
            m -= 1
        yield bits


def naive_hyperspace_vectors(n: int) -> list[int]:
    """All valid membership vectors by filtering every 2^(2^n)-bit candidate."""
    assert n <= 3
    nsub = 1 << n
    full = nsub - 1
    out = []
    for v in range(1 << nsub):
        if v & 1 or not (v >> full) & 1:
            continue
        ok = True
        for m in range(1, nsub):
            if (v >> m) & 1:
                for i in range(n):
                    s = m | (1 << i)
                    if not (v >> s) & 1:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(v)
    return sorted(out)


# -- set-of-frozensets family model ----------------------------------------------

def all_subsets(n: int):
    return [frozenset(c) for k in range(1, n + 1)
            for c in itertools.combinations(range(n), k)]


def up_close(n: int, base) -> frozenset[frozenset[int]]:
    base = [frozenset(b) for b in base]
    return frozenset(s for s in all_subsets(n) if any(b <= s for b in base))


def family_of(h) -> frozenset[frozenset[int]]:
    """Package hyperspace -> set-model family."""
    out = []
    for m in h.members():
        out.append(frozenset(i for i in range(h.n) if (m >> i) & 1))
    return frozenset(out)


def family_bits(n: int, fam) -> int:
    bits = 0
    for s in fam:
        m = 0
        for i in s:
            m |= 1 << i
        bits |= 1 << m
    return bits


def naive_transversal(n: int, fam) -> frozenset[frozenset[int]]:
    return frozenset(e for e in all_subsets(n) if all(e & f for f in fam))


def naive_meet(f1, f2):
    return f1 & f2


def naive_join(f1, f2):
    return f1 | f2


def naive_minimal_sets(fam):
    return sorted((sorted(s) for s in fam
                   if not any(o < s for o in fam)), key=lambda s: (len(s), s))


def naive_k_linked(fam, k: int) -> bool:
    """No k or fewer members have an empty intersection, over every member
    (not only the minimal ones). Adding members only shrinks an
    intersection, so the subfamilies of exactly min(k, |fam|) decide it."""
    members = list(fam)
    return all(frozenset.intersection(*c)
               for c in itertools.combinations(members, min(k, len(members))))


def minimal_masks(n: int, bits: int) -> list[int]:
    """The minimal members of a membership vector: no member one point smaller."""
    return [a for a in range(1, 1 << n) if (bits >> a) & 1
            and not any((bits >> (a ^ (1 << i))) & 1 for i in range(n) if (a >> i) & 1)]


def intersection_levels(f, depth: int) -> list[set[int]]:
    """Levels 0..depth of the chain of distinct intersections of minimal sets.

    Level j holds those first reached by j minimal sets (level 0 is {X}), so
    levels 0..j make up I_j, at most 2^n masks. The levels stop early once
    one adds nothing (by level n), or with {0}: a member a of I_j misses
    some minimal set iff X - a is a member. F is k-linked iff 0 is not in
    I_k.
    """
    full, bits = (1 << f.n) - 1, f.bits
    mins = minimal_masks(f.n, bits)
    levels, seen = [{full}], {full}
    while len(levels) <= depth and levels[-1] and 0 not in levels[-1]:
        if any((bits >> (full ^ a)) & 1 for a in levels[-1]):
            levels.append({0})
        else:
            levels.append({a & m for a in levels[-1] for m in mins} - seen)
            seen |= levels[-1]
    return levels


def intersection_maximal(f, k: int) -> bool:
    """F is maximal k-linked iff it is k-linked and every member of F^T
    contains a member of I_(k-1): adding A keeps F k-linked iff A meets
    every member of I_(k-1), and the complements of the sets outside F are
    the members of F^T."""
    levels = intersection_levels(f, k)
    return 0 not in levels[-1] and transversal_in_upset(f, levels[:k])


def transversal_in_upset(f, levels: list[set[int]]) -> bool:
    """Whether every member of F^T contains a mask of the levels."""
    full, base = (1 << f.n) - 1, set().union(*levels)
    return all(any(a & e == a for a in base)
               for e in range(1, full + 1) if not (f.bits >> (full ^ e)) & 1)


def intersection_flags(f, table=None) -> dict:
    """classify's flags as a dict in ClassFlags field order, read off the
    intersection levels; shift_invariant by the set model over `table`."""
    n, bits, full = f.n, f.bits, (1 << f.n) - 1
    levels = intersection_levels(f, n)
    linked_up_to = len(levels) - 2 if 0 in levels[-1] else n
    mins = minimal_masks(n, bits)
    transversal = sum(1 << e for e in range(1, full + 1) if not (bits >> (full ^ e)) & 1)
    return {
        "linked_up_to": linked_up_to,
        "centered": linked_up_to == n,
        "filter": len(mins) == 1,
        "ultrafilter": len(mins) == 1 and bin(mins[0]).count("1") == 1,
        "maximal_k_linked": {k: k <= linked_up_to and transversal_in_upset(f, levels[:k])
                             for k in range(2, n + 1)},
        "self_transversal": transversal == bits,
        "shift_invariant": None if table is None else naive_shift_invariant(table, family_of(f)),
    }


def first_disjoint_translates(table, fam) -> tuple[int, ...] | None:
    """The first tuple (S_0, .., S_{n-1}) of members of F n F^T, in ascending
    mask order, whose translates x * S_x are pairwise disjoint; None if none.

    Depth-first over all members, not only the minimal ones, each translate
    computed from the table as a set of points.
    """
    n = len(table)
    members = sorted(sum(1 << i for i in s) for s in fam & naive_transversal(n, fam))

    def search(x, used, chosen):
        if x == n:
            return tuple(chosen)
        for s in members:
            tr = frozenset(table[x][y] for y in range(n) if (s >> y) & 1)
            if not tr & used:
                hit = search(x + 1, used | tr, chosen + [s])
                if hit is not None:
                    return hit
        return None

    return search(0, frozenset(), [])


def naive_product_base(table, u_fam, v_fam) -> frozenset[frozenset[int]]:
    """Base-form product over ALL members and selector families (tiny inputs only)."""
    n = len(table)
    u_members = sorted(u_fam, key=lambda s: (len(s), sorted(s)))
    v_members = sorted(v_fam, key=lambda s: (len(s), sorted(s)))
    base = []
    for u in u_members:
        xs = sorted(u)
        for choice in itertools.product(v_members, repeat=len(xs)):
            acc = set()
            for x, vx in zip(xs, choice):
                acc |= {table[x][y] for y in vx}
            base.append(frozenset(acc))
    return up_close(n, base)


def naive_product_transform(g, v) -> list[int]:
    """t[A] = mask {x : x^-1 A in V}, one shift of V's whole word per point
    and mask (the package's preimage rows, the loop kept scalar)."""
    from gspace.products import _preimage_table

    pre = _preimage_table(g)
    n, vb = g.n, v.bits
    out = [0] * (1 << n)
    for a in range(1, 1 << n):
        s = 0
        for x in range(n):
            if (vb >> pre[x][a]) & 1:
                s |= 1 << x
        out[a] = s
    return out


def naive_is_associative(table) -> bool:
    """(ij)k == i(jk) for every triple of a closed composition table (nested
    lists or an array), one row gather per i: rows j of t[t[i]] and t[i][t]
    hold (ij)k and i(jk) for every k."""
    t = np.asarray(table)
    return all(np.array_equal(t[t[i]], t[i][t]) for i in range(len(t)))


def naive_isomorphism(t1, t2) -> tuple[int, ...] | None:
    """The first permutation p, in lexicographic order, with
    t2[p[i]][p[j]] == p[t1[i][j]] for every cell, or None; tables as
    nested lists of one size."""
    rng = range(len(t1))
    for p in itertools.permutations(rng):
        if all(t2[p[i]][p[j]] == p[t1[i][j]] for i in rng for j in rng):
            return p
    return None


def naive_special_elements(table) -> dict:
    """The fields of `structure.SpecialElements` for a closed table, each by
    its definition over Python sets: i is a left zero iff its row is {i}, a
    right zero iff its column is {i}, left (right) cancelable iff its row
    (column) has m distinct entries, the identity iff its row and its column
    are both 0, 1, .., m - 1. The table is read one line at a time."""
    t = np.asarray(table)
    m = len(t)
    rng = range(m)
    ident = list(rng)

    def facts(line):    # i -> (line i is {i}, has m distinct entries, is 0..m-1)
        out = []
        for i in rng:
            entries = line(i)
            out.append((set(entries) == {i}, len(set(entries)) == m, entries == ident))
        return out

    rows, cols = facts(lambda i: t[i].tolist()), facts(lambda j: t[:, j].tolist())
    left = [i for i in rng if rows[i][0]]
    right = [j for j in rng if cols[j][0]]
    units = [e for e in rng if rows[e][2] and cols[e][2]]
    return {
        "idempotents": tuple(i for i in rng if int(t[i, i]) == i),
        "left_zeros": tuple(left),
        "right_zeros": tuple(right),
        "zeros": tuple(sorted(set(left) & set(right))),
        "identity": units[0] if units else None,
        "left_cancelable": tuple(i for i in rng if rows[i][1]),
        "right_cancelable": tuple(j for j in rng if cols[j][1]),
    }


def naive_center(table) -> tuple[int, ...]:
    """Elements whose row equals their column: i * j == j * i for every j."""
    t = np.asarray(table)
    return tuple(i for i in range(len(t)) if t[i].tolist() == t[:, i].tolist())


def naive_minimal_row_ideals(table) -> list[tuple[int, ...]]:
    """The sets {x} u row x as frozensets, kept when no other of them is a
    proper subset; sorted tuples, in ascending order."""
    t = np.asarray(table)
    sets = {frozenset([x, *t[x].tolist()]) for x in range(len(t))}
    return sorted(tuple(sorted(s)) for s in sets if not any(o < s for o in sets))


def naive_line_sets(table, axis: int) -> list[frozenset[int]]:
    """The entries of each row (axis 1) or column (axis 0), one Python set per line."""
    t = np.asarray(table)
    return [frozenset(line) for line in (t if axis == 1 else t.T).tolist()]


def sorted_invariants(table) -> np.ndarray:
    """Per element, whether it and its square are idempotent and the
    numbers of distinct entries in its row and column, counted by sorting
    each line and counting the steps, packed into one int64 as
    `structure._invariants` packs them."""
    t = np.asarray(table)
    m, ar = len(t), np.arange(len(t))
    sq = t[ar, ar]
    rows, cols = (1 + (np.diff(np.sort(a, axis=1), axis=1) != 0).sum(axis=1) for a in (t, t.T))
    return (((sq == ar) * 2 + (t[sq, sq] == sq)) * (m + 1) + rows) * (m + 1) + cols


def principal_two_sided_ideal(t, x: int) -> frozenset[int]:
    """Closure of {x} under multiplication by the table on either side."""
    seen = np.zeros(len(t), dtype=bool)
    seen[x] = True
    frontier = np.array([x])
    while frontier.size:
        hit = np.zeros(len(t), dtype=bool)
        hit[t[frontier]] = True
        hit[t[:, frontier]] = True
        frontier = np.flatnonzero(hit & ~seen)
        seen |= hit
    return frozenset(np.flatnonzero(seen).tolist())


def descent_minimal_ideal(t) -> tuple[int, ...]:
    """Kernel of an associative table by descent through principal two-sided
    ideals, until none of the members generates a strictly smaller one."""
    current = principal_two_sided_ideal(t, 0)
    changed = True
    while changed:
        changed = False
        for y in current:
            cand = principal_two_sided_ideal(t, y)
            if len(cand) < len(current):
                current = cand
                changed = True
                break
    return tuple(sorted(current))


def naive_shift_invariant(table, fam) -> bool:
    n = len(table)
    for a in fam:
        for x in range(n):
            img = frozenset(table[x][y] for y in a)
            pre = frozenset(y for y in range(n) if table[x][y] in a)
            if img not in fam or pre not in fam:
                return False
    return True



def naive_meet_transversal(m: int, fam, k: int) -> frozenset[frozenset[int]]:
    """The subsets of m points, the empty one included, that meet every
    intersection of 1..k-1 members of fam (fam may hold the empty set)."""
    meets = {frozenset.intersection(*c) for j in range(1, k)
             for c in itertools.combinations(fam, j)}
    subsets = [frozenset(c) for j in range(m + 1) for c in itertools.combinations(range(m), j)]
    return frozenset(e for e in subsets if all(e & a for a in meets))


# -- linked class censuses by set partitions -----------------------------------------

def set_partitions(n: int, t: int) -> list[list[int]]:
    """Set partitions of the n points into exactly t blocks, as block masks."""
    parts: list[list[int]] = [[]]
    for i in range(n):
        nxt = []
        for blocks in parts:
            for j in range(len(blocks)):
                nxt.append(blocks[:j] + [blocks[j] | (1 << i)] + blocks[j + 1:])
            if len(blocks) < t:
                nxt.append(blocks + [1 << i])
        parts = nxt
    return [p for p in parts if len(p) == t]


def partition_mask(n: int, parts, words: np.ndarray) -> np.ndarray:
    """Keep the words that, for every partition in `parts`, miss the
    complement of some block."""
    full = (1 << n) - 1
    keep = np.ones(len(words), dtype=bool)
    for blocks in parts:
        m = np.uint64(sum(1 << (full ^ b) for b in blocks))
        keep &= (words & m) != m
    return keep


def linked_mask(n: int, k: int, words: np.ndarray) -> np.ndarray:
    """F fails to be k-linked iff, for some partition of the carrier into
    min(k, n) blocks, the complement of every block is a member.

    Members A_1..A_j (j <= k) with no common point have complements covering
    the carrier; refine that cover into min(k, n) disjoint blocks, each inside
    some complement, and upward closure puts every block's complement in F.
    A k-linked family is 2-linked, so where there are more than twice as
    many partitions as 2-block ones, the 2-block ones mask first and the
    others test the survivors only.
    """
    parts, pairs = set_partitions(n, min(k, n)), set_partitions(n, 2)
    if len(parts) <= 2 * len(pairs):
        return partition_mask(n, parts, words)
    keep = partition_mask(n, pairs, words)
    keep[keep] = partition_mask(n, parts, words[keep])
    return keep


def maximal_linked_words(n: int, k: int, linked: np.ndarray) -> np.ndarray:
    """The maximal ones among k-linked words: for each nonempty set A in
    turn, keep F iff A is in F or F | up(A) is not k-linked."""
    for a in range(1, 1 << n):
        up = np.uint64(sum(1 << s for s in range(1 << n) if s & a == a))
        grown = linked | up
        linked = linked[(grown == linked) | ~linked_mask(n, k, grown)]
    return linked

# -- composition tables ------------------------------------------------------------

def bit_gather_words(words, index) -> np.ndarray:
    """out[b, i]: the word whose bit A is bit index[b, A] of words[i].

    Each gather unpacks the words into a bit matrix, takes its columns
    index[b] and packs them back, one column at a time.
    """
    rows = np.unpackbits(np.asarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    return np.array([np.packbits(rows.take(ix, axis=1), axis=1,
                                 bitorder="little").view("<u8")[:, 0] for ix in index],
                    dtype=np.uint64).reshape(len(index), len(rows))


def gather_table(g, words, rights) -> np.ndarray:
    """table[i, j] = index in `words` of words[i] o rights[j], or -1.

    Every column is gathered on its own: bit A of U o V is bit t[A] of U,
    where x is in t[A] iff {y : x * y in A} is in V. The words are looked up
    by binary search. This is the full-gather reference for the table
    builder's compressed path.
    """
    n, nsub = g.n, 1 << g.n
    pre = [[sum(1 << y for y in range(n) if (a >> g.table[x][y]) & 1)
            for a in range(nsub)] for x in range(n)]
    right_rows = np.unpackbits(np.asarray(rights, dtype="<u8").view(np.uint8).reshape(-1, 8),
                               axis=1, bitorder="little")
    transforms = sum(right_rows[:, p].astype(np.intp) << x for x, p in enumerate(pre))
    words = np.asarray(words, dtype=np.uint64)
    order = np.argsort(words, kind="stable")
    ranked = words[order]
    gather = np.zeros(64, dtype=np.intp)
    table = np.empty((len(words), len(rights)), dtype=np.int32)
    for j, t in enumerate(transforms):
        gather[:nsub] = t
        col = bit_gather_words(words, [gather])[0]
        pos = np.minimum(np.searchsorted(ranked, col), len(ranked) - 1)
        table[:, j] = np.where(ranked[pos] == col, order[pos], -1)
    return table


def naive_plan(shift) -> tuple[np.ndarray, ...]:
    """(reps, kid, parent, h) for a shift table, by a walk over the indices
    in order: one not yet planned is a representative, and every unplanned
    shift of it is its kid (shifting twice is shifting once, by the product
    of the two points, so one step reaches every shift). This is the
    reference for the builder's one-reduction plan.
    """
    planned = bytearray(len(shift))
    reps, kids = [], []
    for j, row in enumerate(shift.tolist()):
        if planned[j]:
            continue
        planned[j] = 1
        reps.append(j)
        for h, k in enumerate(row):
            if k >= 0 and not planned[k]:       # k is j shifted by point h
                planned[k] = 1
                kids.append((k, j, h))
    kid, parent, h = np.array(kids, dtype=np.intp).reshape(-1, 3).T
    return np.array(reps, dtype=np.intp), kid, parent, h
