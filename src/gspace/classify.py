"""Membership predicates for the distinguished families and class censuses.

k-linked: every at most k members share a point; centered: all members
share a point, which is n-linked on n points (if no point is shared, the
n members missing one point each meet in nothing). Both are read off the
distinct intersections of minimal sets: I_0 = {X} and I_(j+1) adds a & m
for a in I_j and m minimal, so F is k-linked iff the empty set is not in
I_k. filter: closed under intersection, which on a finite carrier means a
single minimal set; ultrafilters are the principal hyperspaces.
Maximality is decided by single-set extensions: the classes here are
closed under unions of chains, so a family is maximal iff no one
additional set keeps the property (asserted against the brute-force
definition in the tests).

The predicates above take one family. Class censuses instead filter the
whole census at once, as bit operations on its array of 64-bit membership
words (`upset_words`), maximality too; the tests hold each filter equal to
its predicate.
The maximal linked families are the self-transversal ones, F = F^T, and are
read off the up-sets on one point fewer by half-cube self-duality (see
`_maxlinked_words`). The shift-invariant ones are the right zeros of G(X),
its shift-invariant core, for any groupoid X: <x> o F = {A : x^-1 A in F},
so F is a right zero iff every <x> fixes it (then {x : x^-1 A in F} is X or
empty, and U o F = F for every U), iff F holds all or none of each class of
the equivalence on subsets generated by A ~ x^-1 A. `class_words` returns a
census as that ascending uint64 array, which views take directly;
`enumerate_class` and `maximal_linked_families` wrap its entries as
Hyperspaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .groupoids import MAX_ENUM_CARRIER, Groupoid
from .hyperspaces import (Hyperspace, _gather_words, _membership,
                          _point_words, _upsets, generate, mask_elements,
                          upset_words)
from .products import _image_table, _preimage_table

CLASS_TOKENS = ("all", "filters", "ultrafilters", "linked", "centered",
                "maxlinked", "shiftinv")


def _intersect(masks) -> int:
    acc = -1
    for m in masks:
        acc &= m
    return acc


def _intersections(f: Hyperspace, depth: int) -> list[set[int]]:
    """Levels 0..depth of the chain of distinct intersections of minimal sets.

    Level j holds those first reached by j minimal sets (level 0 is {X}), so
    levels 0..j make up I_j, at most 2^n masks. The levels stop early once
    one adds nothing (by level n), or with {0}: a member a of I_j misses
    some minimal set iff X - a is a member.
    """
    if depth < 1:
        raise InputError("k must be at least 1")
    full, bits, mins = (1 << f.n) - 1, f.bits, f.minimal_sets()
    levels, seen = [{full}], {full}
    while len(levels) <= depth and levels[-1] and 0 not in levels[-1]:
        if any((bits >> (full ^ a)) & 1 for a in levels[-1]):
            levels.append({0})
        else:
            levels.append({a & m for a in levels[-1] for m in mins} - seen)
            seen |= levels[-1]
    return levels


def is_k_linked(f: Hyperspace, k: int) -> bool:
    """Every subfamily of at most k members has a common point: the empty
    set is not in I_k, the intersections of at most k minimal sets."""
    return 0 not in _intersections(f, k)[-1]


def is_centered(f: Hyperspace) -> bool:
    return _intersect(f.minimal_sets()) != 0


def is_filter(f: Hyperspace) -> bool:
    return len(f.minimal_sets()) == 1


def is_ultrafilter(f: Hyperspace) -> bool:
    mins = f.minimal_sets()
    return len(mins) == 1 and bin(mins[0]).count("1") == 1


def is_self_transversal(f: Hyperspace) -> bool:
    return f.bits == f.transversal().bits


def is_maximal_k_linked(f: Hyperspace, k: int) -> bool:
    """k-linked with no single-set extension staying k-linked.

    Adding A keeps the family k-linked iff A meets every member of I_(k-1),
    the intersections of at most k-1 minimal sets; subfamilies avoiding A
    were k-linked already. A misses a member of I_(k-1) iff its complement
    contains one, and the complements of the A outside F are the members
    of F^T: F is maximal iff F^T lies in the up-set generated by I_(k-1).
    """
    levels = _intersections(f, k)
    return 0 not in levels[-1] and _in_upset(f.transversal().bits, f.n, levels[:k])


def _in_upset(t: int, n: int, levels: list[set[int]]) -> bool:
    """Whether word t (F^T) lies in the up-set generated by the levels' masks."""
    return not (t & ~generate(n, set().union(*levels)).bits)


def is_shift_invariant(g: Groupoid, f: Hyperspace) -> bool:
    """x * A and x^-1 A stay in the family for every member A and every x."""
    if f.n != g.n:
        raise InputError(f"carrier mismatch: groupoid has {g.n}, hyperspace {f.n}")
    img, pre = _image_table(g), _preimage_table(g)
    member = _membership(f.n, f.bits)      # member[A] == "1" iff A is a member
    for m in f.minimal_sets():
        for x in range(g.n):
            if member[img[x][m]] == "0" or member[pre[x][m]] == "0":
                return False
    return True


@dataclass
class ClassFlags:
    """Classification of one hyperspace; shift_invariant is None without a groupoid."""
    linked_up_to: int
    centered: bool
    filter: bool
    ultrafilter: bool
    maximal_k_linked: dict[int, bool]
    self_transversal: bool
    shift_invariant: bool | None = field(default=None)


def classify(f: Hyperspace, g: Groupoid | None = None) -> ClassFlags:
    n = f.n
    levels = _intersections(f, n)
    linked_up_to = len(levels) - 2 if 0 in levels[-1] else n
    t = f.transversal().bits
    return ClassFlags(
        linked_up_to=linked_up_to,
        centered=linked_up_to == n,     # n-linked on n points
        filter=is_filter(f),
        ultrafilter=is_ultrafilter(f),
        maximal_k_linked={k: k <= linked_up_to and _in_upset(t, n, levels[:k])
                          for k in range(2, n + 1)},
        self_transversal=t == f.bits,
        shift_invariant=None if g is None else is_shift_invariant(g, f),
    )


# -- class censuses --------------------------------------------------------------

def _maxlinked_words(n: int) -> np.ndarray:
    """The words of all maximal 2-linked hyperspaces, ascending.

    A family F is maximal linked iff F = F^T. Split F on the last point as
    f1 << 2^(n-1) | f0, like the census words: then F^T splits as
    f1^T << 2^(n-1) | f0^T (transversals on n - 1 points), so F = F^T iff
    f0 = f1^T, and F is an up-set iff f1^T <= f1. The families are read off
    the up-sets w on n - 1 points with w^T <= w, ascending with w.
    """
    if not 1 <= n <= MAX_ENUM_CARRIER:
        raise InputError(
            f"maximal linked enumeration supports carrier sizes 1..{MAX_ENUM_CARRIER}")
    half = 1 << (n - 1)
    w = _upsets(n - 1)
    flip = np.zeros(64, dtype=np.intp)      # bit E of w^T is bit (Y - E) of ~w
    flip[:half] = (half - 1) ^ np.arange(half)
    wt = ~_gather_words(w, flip[None])[0] & np.uint64((1 << half) - 1)
    keep = (wt & ~w) == 0
    return (w[keep] << np.uint64(half)) | wt[keep]


def maximal_linked_families(n: int) -> list[Hyperspace]:
    """All maximal 2-linked hyperspaces on n points, ascending."""
    return [Hyperspace._raw(n, b) for b in _maxlinked_words(n).tolist()]


def parse_class_token(spec: str) -> tuple[str, int | None]:
    """Split a CLI class token like `linked:3` into (name, k)."""
    name, _, karg = spec.partition(":")
    if name not in CLASS_TOKENS:
        raise InputError(f"unknown class {spec!r}; tokens: "
                         "all|filters|ultrafilters|linked:k|centered|maxlinked:k|shiftinv")
    if name in ("linked", "maxlinked"):
        if not karg:
            raise InputError(f"class {name} needs a bound, e.g. {name}:2")
        try:
            k = int(karg)
        except ValueError:
            raise InputError(f"bad k in class token {spec!r}") from None
        return name, k
    if karg:
        raise InputError(f"class {name} takes no bound")
    return name, None


@functools.cache
def _partitions(n: int, t: int) -> tuple[tuple[int, ...], ...]:
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
    return tuple(tuple(p) for p in parts if len(p) == t)


def _linked_mask(n: int, k: int, words: np.ndarray) -> np.ndarray:
    """F fails to be k-linked iff, for some partition of the carrier into
    min(k, n) blocks, the complement of every block is a member.

    Members A_1..A_j (j <= k) with no common point have complements covering
    the carrier; refine that cover into min(k, n) disjoint blocks, each inside
    some complement, and upward closure puts every block's complement in F.
    A k-linked family is 2-linked, so the 2-block partitions may mask first
    and the others test the survivors only. With P partitions of the bound
    and Q two-block ones, that sweeps Q + s*P passes' worth of words instead
    of P, where s is the input's 2-linked share; it is done where P > 2Q
    (k = 3, 4 at n = 6), which pays whenever s < 1/2. The n = 6 census has
    s = 0.18; at n = 5 (P = 25 or 10 against Q = 15) and at k >= 5 on n = 6
    (15 against 31) the single pass is the faster one.
    """
    parts, pairs = _partitions(n, min(k, n)), _partitions(n, 2)
    if len(parts) <= 2 * len(pairs):
        return _partition_mask(n, parts, words)
    keep = _partition_mask(n, pairs, words)
    keep[keep] = _partition_mask(n, parts, words[keep])
    return keep


def _partition_mask(n: int, parts: tuple[tuple[int, ...], ...],
                    words: np.ndarray) -> np.ndarray:
    """Keep the words that, for every partition in `parts`, miss the
    complement of some block."""
    full = (1 << n) - 1
    keep = np.ones(len(words), dtype=bool)
    for blocks in parts:
        m = np.uint64(sum(1 << (full ^ b) for b in blocks))
        keep &= (words & m) != m
    return keep


def _shift_classes(g: Groupoid) -> list[int]:
    """The classes of the equivalence on subsets generated by A ~ x^-1 A,
    as words (bit A set for each subset A in the class)."""
    pre = _preimage_table(g)
    root = list(range(1 << g.n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    for a in range(1 << g.n):
        for row in pre:
            root[find(row[a])] = find(a)
    classes: dict[int, int] = {}
    for a in range(1 << g.n):
        r = find(a)
        classes[r] = classes.get(r, 0) | (1 << a)
    return list(classes.values())


def _shift_invariant_mask(g: Groupoid, words: np.ndarray) -> np.ndarray:
    """Keep F iff it holds all or none of each class of `_shift_classes`.

    A class of one subset always passes, so it is not tested. No census word
    holds the empty set, so the class holding it must be absent altogether.
    """
    keep = np.ones(len(words), dtype=bool)
    for c in _shift_classes(g):
        if c & (c - 1):
            meet = words & np.uint64(c)
            keep &= (meet == 0) if c & 1 else (meet == 0) | (meet == np.uint64(c))
    return keep


def class_words(g: Groupoid, token: str, k: int | None = None) -> np.ndarray:
    """The membership words of a distinguished class, ascending, as uint64.

    Filters and ultrafilters are produced directly (up(A), the filter
    generated by a set A, is the intersection of the principal ultrafilters
    of its points); maximal 2-linked by half-cube self-duality above;
    everything else by masking the census words with the bit filters above,
    centered as n-linked (the single partition into points). Maximal
    k-linked with k >= 3 then keeps the k-linked survivors F for which
    F | up(A) is not k-linked for any A outside F. The shift-invariant core
    (the right zeros of G(X): fixed by every <x>) keeps the words that hold
    all or none of each class of subsets under A ~ x^-1 A.
    """
    n = g.n
    if n > MAX_ENUM_CARRIER:
        raise InputError(f"class enumeration needs carrier <= {MAX_ENUM_CARRIER}")
    if token in ("linked", "maxlinked") and (k is None or k < 2):
        raise InputError(f"{token}:k needs k >= 2")
    points = _point_words(n)    # up({x}), the principal ultrafilter of x
    ups = [_intersect(points[i] for i in mask_elements(a)) for a in range(1, 1 << n)]
    if token in ("filters", "ultrafilters"):
        return np.sort(np.array(ups if token == "filters" else points, dtype=np.uint64))
    if token == "maxlinked" and k == 2:
        return _maxlinked_words(n)
    words = upset_words(n)
    if token in ("centered", "linked", "maxlinked"):
        words = words[_linked_mask(n, n if token == "centered" else k, words)]
    elif token == "shiftinv":
        words = words[_shift_invariant_mask(g, words)]
    elif token != "all":
        raise InputError(f"unknown class token {token!r}")
    if token == "maxlinked":
        for up in ups:      # A in F iff up(A) <= F; else F | up(A) must fail
            grown = words | np.uint64(up)
            words = words[(grown == words) | ~_linked_mask(n, k, grown)]
    return words


def enumerate_class(g: Groupoid, token: str, k: int | None = None) -> list[Hyperspace]:
    """All members of a distinguished class, ascending (see class_words)."""
    return [Hyperspace._raw(g.n, b) for b in class_words(g, token, k).tolist()]
