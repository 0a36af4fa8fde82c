"""Membership predicates for the distinguished families and class censuses.

k-linked: every at most k members share a point; centered: all members
share a point, which is n-linked on n points (if no point is shared, the
n members missing one point each meet in nothing). filter: closed under
intersection, which on a finite carrier means a single minimal set;
ultrafilters are the principal hyperspaces. Maximality is decided by
single-set extensions: the classes here are closed under unions of chains,
so a family is maximal iff no one additional set keeps the property
(asserted against the brute-force definition in the tests).

Both linked properties are read off tau_k(F), the up-set of the sets meeting
every intersection of at most k - 1 members of F: F is k-linked iff
F <= tau_k(F), and maximal k-linked iff F = tau_k(F) (a set can join F iff
it meets each of those intersections). tau_k(F) is the transversal of
J_(k-1), where J_1 = F and J_(j+1) = up(J_j ^ F), the up-set of the meets
of at most j + 1 members, one round of point word shifts per step; so F is
k-linked iff J_(k-1) lies inside F^T, and maximal k-linked iff
J_(k-1) = F^T. `is_k_linked`, `is_maximal_k_linked`, and `classify` above
n = 5, run that chain on one Python int (`_meet_chain`). `classify` on
n <= 5 points reads a table of the whole census instead, built once per n
from the class censuses below (`_census_flags`: 7,579 words at n = 5, about
4 ms): the census on 6 points has 7.8M words, so no single-family call
builds it.

Class censuses work on arrays of 64-bit membership words too (n <= 6); the
tests hold each census equal to its predicate. The linked classes are read
off the half-cube split F = f1 << 2^(n-1) | f0 of the census (`upset_words`)
with tau_k: F is k-linked iff f0 <= f1 & tau_k(f1), and F = tau_k(F) makes
f0 = tau_k(f1) (see `_linked_words`); tau_2 is the transversal, so the
maximal linked families are the self-transversal ones, F = F^T. Only
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

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .groupoids import MAX_ENUM_CARRIER, Groupoid
from .hyperspaces import (Hyperspace, _bit_rows, _half_cube, _membership,
                          _point_words, _upsets, mask_elements, upset_words)
from .products import _image_table, _preimage_table, _require_carrier

CLASS_TOKENS = ("all", "filters", "ultrafilters", "linked", "centered",
                "maxlinked", "shiftinv")


def _intersect(masks) -> int:
    acc = -1
    for m in masks:
        acc &= m
    return acc


def _meet_chain(f: Hyperspace, t: int, depth: int) -> list[int]:
    """J_0 = {X}, J_1 = F, .., J_j of the chain J_(i+1) = up(J_i ^ F), the
    up-set of the meets a & b (a in J_i, b in F): J_i is the up-set of the
    meets of at most i members, and t = F^T.

    For one set b, up(J ^ b) = {c : c | (X - b) in J}: J with the points
    outside b forced in, one point word shift each, the single-int form of
    a round of `_meet_transversal`; J_(i+1) ORs these over b in min F. The
    chain stops at J_depth, at a fixed point (reached by J_n: a meet of
    members is a meet of at most n of them), or at the first J_j not inside
    t: a member a of J_j has X - a in F, so F is j-linked but not
    (j + 1)-linked.
    """
    n = f.n
    points = _point_words(n)
    forced = [[(points[i], 1 << i) for i in range(n) if not (b >> i) & 1]
              for b in f.minimal_sets()]
    chain = [1 << ((1 << n) - 1), f.bits]
    while len(chain) <= depth and not chain[-1] & ~t:
        meets = chain[-1]
        grown = 0
        for steps in forced:
            w = meets
            for c, s in steps:
                w &= c
                w |= w >> s
            grown |= w
        if grown == meets:
            break
        chain.append(grown)
    return chain


def _meets_and_transversal(f: Hyperspace, k: int) -> tuple[int, int]:
    """J_(k-1) of `_meet_chain` (or the J_j it stopped at, which decides
    the same) and F^T."""
    if k < 1:
        raise InputError("k must be at least 1")
    t = f.transversal().bits
    chain = _meet_chain(f, t, k - 1)
    return chain[min(k - 1, len(chain) - 1)], t


def is_k_linked(f: Hyperspace, k: int) -> bool:
    """Every subfamily of at most k members has a common point: no meet of
    at most k - 1 members misses a member, J_(k-1) lies inside F^T."""
    meets, t = _meets_and_transversal(f, k)
    return not meets & ~t


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
    """k-linked with no single-set extension staying k-linked: F = tau_k(F),
    the sets meeting every meet of at most k - 1 members, so J_(k-1) = F^T.

    A set can join F iff it meets every member of J_(k-1), and the sets
    outside F that miss one are the complements of the members of J_(k-1)
    outside F^T; with F k-linked (J_(k-1) inside F^T) no set can join iff
    every member of F^T is in J_(k-1).
    """
    meets, t = _meets_and_transversal(f, k)
    return meets == t


def is_shift_invariant(g: Groupoid, f: Hyperspace) -> bool:
    """x * A and x^-1 A stay in the family for every member A and every x."""
    _require_carrier(g, f)
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


_TABLE_MAX_N = 5    # the census has 7,579 words at n = 5 and 7.8M at n = 6


@functools.cache
def _census_flags(n: int) -> dict[int, tuple]:
    """classify's flags (without shift invariance) of every hyperspace on
    n <= 5 points, keyed by its word, each one of a few shared tuples
    (linked_up_to, filter, ultrafilter, maximal_k_linked pairs,
    self_transversal).

    Each flag is membership in a class census, an ascending part of the
    census whose rows `np.searchsorted` finds. A k-linked family is j-linked
    for every j < k, so linked_up_to is 1 plus the number of k-linked
    censuses, k = 2..n, that hold F. F is self-transversal iff it is
    maximal linked, F = F^T = tau_2(F): bit 5, set at n = 1 too.
    """
    words = upset_words(n)
    rows = functools.partial(np.searchsorted, words)
    code = np.ones(len(words), dtype=np.int64)      # linked_up_to in bits 0..2
    for k in range(2, n + 1):
        code[rows(_linked_words(n, k, False))] += 1
    columns = [(3, _filter_words(n, False)), (4, _filter_words(n, True))]
    columns += [(3 + k, _linked_words(n, k, True)) for k in range(2, max(n, 2) + 1)]
    for bit, census in columns:
        code[rows(census)] |= 1 << bit
    codes = code.tolist()
    flags = {c: (c & 7, bool(c & 8), bool(c & 16),
                 tuple((k, bool((c >> (3 + k)) & 1)) for k in range(2, n + 1)),
                 bool(c & 32)) for c in set(codes)}
    return dict(zip(words.tolist(), map(flags.__getitem__, codes)))


def _chain_flags(f: Hyperspace) -> tuple:
    """The same flags as `_census_flags`, from one meet chain of f."""
    n, t = f.n, f.transversal().bits
    chain = _meet_chain(f, t, n - 1)
    last = len(chain) - 1
    return (last if chain[-1] & ~t else n, is_filter(f), is_ultrafilter(f),
            tuple((k, chain[min(k - 1, last)] == t) for k in range(2, n + 1)),
            t == f.bits)


@functools.lru_cache(maxsize=32)
def _shift_invariant_words(g: Groupoid) -> frozenset[int]:
    """The words of the shift-invariant hyperspaces on g's n <= 5 points."""
    return frozenset(class_words(g, "shiftinv").tolist())


def classify(f: Hyperspace, g: Groupoid | None = None) -> ClassFlags:
    """The flags of f, read off a table of the census on n <= 5 points and
    off one meet chain of f above (see `_census_flags`, `_meet_chain`)."""
    n = f.n
    if g is not None:
        _require_carrier(g, f)
    small = n <= _TABLE_MAX_N
    linked_up_to, filt, ultra, maximal, self_t = \
        _census_flags(n)[f.bits] if small else _chain_flags(f)
    if g is None:
        shift_invariant = None
    else:
        shift_invariant = f.bits in _shift_invariant_words(g) if small else is_shift_invariant(g, f)
    return ClassFlags(
        linked_up_to=linked_up_to,
        centered=linked_up_to == n,     # n-linked on n points
        filter=filt,
        ultrafilter=ultra,
        maximal_k_linked=dict(maximal),
        self_transversal=self_t,
        shift_invariant=shift_invariant,
    )


# -- class censuses --------------------------------------------------------------

def _meet_transversal(words: np.ndarray, m: int, k: int) -> np.ndarray:
    """tau_k of each up-set word w on m points: the sets meeting every
    intersection of at most k - 1 members of w, an up-set.

    tau_k(w) is the transversal of J_(k-1), where J_1 = w and J_(j+1) =
    up(J_j ^ w), the up-set of the meets a & b (a in J_j, b in w): E misses
    a meet iff its complement contains one, and bit E of J^T is bit X - E
    of ~J. For one set b, up(J ^ b) = {c : c | (X - b) in J}, J with the
    points of X - b forced in, one point word shift each (bit c of
    (J & p_i) >> 2^i is bit c + {i} of J). A round forces every S at once
    and ORs those whose X - S is in w (holds[S] all ones). The rounds stop
    at k - 1 or once J holds, which is by m rounds.
    """
    points = _point_words(m)
    meets = words
    if k > 2:
        full = (1 << m) - 1
        holds = _bit_rows(words)[:, full ^ np.arange(1 << m)].T * np.uint64((1 << 64) - 1)
    for _ in range(k - 2):
        forced = np.empty((1 << m, len(words)), dtype=np.uint64)
        forced[0] = meets
        for i, c in enumerate(points):
            part = forced[:1 << i] & np.uint64(c)
            np.bitwise_or(part, part >> np.uint64(1 << i), out=forced[1 << i:2 << i])
        grown = np.bitwise_or.reduce(np.bitwise_and(forced, holds, out=forced), axis=0)
        if np.array_equal(grown, meets):
            break
        meets = grown
    for i, c in enumerate(points):
        c, s = np.uint64(c), np.uint64(1 << i)
        meets = ((meets & c) >> s) | ((meets << s) & c)
    return ~meets & np.uint64((1 << (1 << m)) - 1)


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


def _filter_words(n: int, ultra: bool) -> np.ndarray:
    """The words of the filters on n points, or of the ultrafilters,
    ascending: up(A), the filter generated by a set A, is the intersection
    of the principal ultrafilters of its points."""
    points = _point_words(n)    # up({x}), the principal ultrafilter of x
    ups = points if ultra else [
        _intersect(points[i] for i in mask_elements(a)) for a in range(1, 1 << n)]
    return np.sort(np.array(ups, dtype=np.uint64))


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

    Filters and ultrafilters are produced directly (`_filter_words`). The
    k-linked, centered (n-linked on n points, taken 2-linked on one point,
    where both hold every family) and maximal k-linked classes come off the
    up-sets on n - 1 points by `_linked_words`.
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
        return _filter_words(n, token == "ultrafilters")
    if token in ("linked", "centered", "maxlinked"):
        return _linked_words(n, max(n, 2) if token == "centered" else k, token == "maxlinked")
    if token not in ("all", "shiftinv"):
        raise InputError(f"unknown class token {token!r}")
    words = upset_words(n)
    return words[_shift_invariant_mask(g, words)] if token == "shiftinv" else words


def enumerate_class(g: Groupoid, token: str, k: int | None = None) -> list[Hyperspace]:
    """All members of a distinguished class, ascending (see class_words)."""
    return [Hyperspace._raw(g.n, b) for b in class_words(g, token, k).tolist()]
