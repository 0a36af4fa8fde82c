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

The predicates above take one family. Class censuses instead work on arrays
of 64-bit membership words (n <= 6); the tests hold each census equal to its
predicate. The linked classes are read off the half-cube split
F = f1 << 2^(n-1) | f0 of the census (`upset_words`) with tau_k(w), the
up-set of sets meeting every intersection of at most k - 1 members of w: F
is k-linked iff f0 <= f1 & tau_k(f1), and maximal k-linked iff F = tau_k(F),
which makes f0 = tau_k(f1) (see `_linked_words`); tau_2 is the transversal,
so the maximal linked families are the self-transversal ones, F = F^T. Only
the up-sets on n - 1 points are built for them, never the census itself. The
shift-invariant ones are the right zeros of G(X), its shift-invariant core,
for any groupoid X: <x> o F = {A : x^-1 A in F}, so F is a right zero iff
every <x> fixes it (then {x : x^-1 A in F} is X or empty, and U o F = F for
every U), iff F holds all or none of each class of the equivalence on
subsets generated by A ~ x^-1 A, a mask over the census. `class_words`
returns a census as an ascending uint64 array, which views take directly;
`enumerate_class` and `maximal_linked_families` wrap its entries as
Hyperspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .groupoids import MAX_ENUM_CARRIER, Groupoid
from .hyperspaces import (Hyperspace, _bit_rows, _half_cube, _membership,
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

def _meet_transversal(words: np.ndarray, m: int, k: int) -> np.ndarray:
    """tau_k of each up-set word w on m points: the sets meeting every
    intersection of at most k - 1 members of w, an up-set.

    With J_1 = w and J_(j+1) = up(J_j ^ w) (the up-set of the meets a & b,
    a in J_j, b in w), tau_k(w) is the transversal of J_(k-1): E misses a
    meet iff its complement contains one. For one set b, up(J ^ b) = {c :
    c | (X - b) in J}, read for every S = X - b at once: the word of
    {c : c | S in J} is J with the points of S forced in, one point word
    shift each (bit c of (J & p_i) >> 2^i is bit c + {i} of J). A round
    ORs those of the b in w; the rounds stop at k - 1 or once J holds,
    which is by m rounds.
    """
    size, full = 1 << m, (1 << m) - 1
    meets, points = words, [np.uint64(c) for c in _point_words(m)]
    if k > 2:
        holds = _bit_rows(words)[:, full ^ np.arange(size)].T.astype(bool)  # [S, j]: X - S in w_j
    for _ in range(k - 2):
        forced = np.empty((size, len(words)), dtype=np.uint64)
        forced[0] = meets
        for i, c in enumerate(points):
            part = forced[:1 << i] & c
            np.bitwise_or(part, part >> np.uint64(1 << i), out=forced[1 << i:2 << i])
        grown = np.bitwise_or.reduce(np.where(holds, forced, np.uint64(0)), axis=0)
        if np.array_equal(grown, meets):
            break
        meets = grown
    for i, c in enumerate(points):     # bit E of J^T is bit X - E of ~J
        meets = ((meets & c) >> np.uint64(1 << i)) | ((meets << np.uint64(1 << i)) & c)
    return ~meets & np.uint64((1 << size) - 1)


def _linked_words(n: int, k: int, maximal: bool) -> np.ndarray:
    """The words of the k-linked hyperspaces on n points, or of the maximal
    ones, ascending.

    Split F on the last point as f1 << 2^(n-1) | f0, like the census.
    Members holding the last point share it; at most k members with some A
    of f0 among them share a point iff A meets the meet of the others, a
    meet of at most k - 1 members of f1 (f0 <= f1). So F is k-linked iff
    f0 lies in f1 & tau_k(f1), read by the half-cube step with that bound.
    F is maximal k-linked iff F = tau_k(F) (a set can join F iff it meets
    every meet of at most k - 1 members); then f0 = tau_k(f1), so the
    candidates are the f1 with tau_k(f1) <= f1.
    """
    m = n - 1
    f1 = _upsets(m)
    t = _meet_transversal(f1, m, k)
    if maximal:
        keep = (t & ~f1) == 0
        words = (f1[keep] << np.uint64(1 << m)) | t[keep]
        return words[_meet_transversal(words, n, k) == words]
    return np.concatenate(list(_half_cube(f1, f1 & t, m)))[1:]      # drop the empty family


def maximal_linked_families(n: int) -> list[Hyperspace]:
    """All maximal 2-linked hyperspaces on n points, ascending."""
    if not 1 <= n <= MAX_ENUM_CARRIER:
        raise InputError(
            f"maximal linked enumeration supports carrier sizes 1..{MAX_ENUM_CARRIER}")
    return [Hyperspace._raw(n, b) for b in _linked_words(n, 2, True).tolist()]


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
    of its points). The k-linked, centered (n-linked on n points, taken
    2-linked on one point, where both hold every family) and maximal
    k-linked classes come off the up-sets on n - 1 points by `_linked_words`.
    The others filter the census: the shift-invariant core (the right zeros
    of G(X): fixed by every <x>) keeps the words that hold all or none of
    each class of subsets under A ~ x^-1 A.
    """
    n = g.n
    if n > MAX_ENUM_CARRIER:
        raise InputError(f"class enumeration needs carrier <= {MAX_ENUM_CARRIER}")
    if token in ("linked", "maxlinked") and (k is None or k < 2):
        raise InputError(f"{token}:k needs k >= 2")
    if token in ("filters", "ultrafilters"):
        points = _point_words(n)    # up({x}), the principal ultrafilter of x
        ups = points if token == "ultrafilters" else [
            _intersect(points[i] for i in mask_elements(a)) for a in range(1, 1 << n)]
        return np.sort(np.array(ups, dtype=np.uint64))
    if token in ("linked", "centered", "maxlinked"):
        return _linked_words(n, max(n, 2) if token == "centered" else k, token == "maxlinked")
    if token not in ("all", "shiftinv"):
        raise InputError(f"unknown class token {token!r}")
    words = upset_words(n)
    return words[_shift_invariant_mask(g, words)] if token == "shiftinv" else words


def enumerate_class(g: Groupoid, token: str, k: int | None = None) -> list[Hyperspace]:
    """All members of a distinguished class, ascending (see class_words)."""
    return [Hyperspace._raw(g.n, b) for b in class_words(g, token, k).tolist()]
