"""Membership predicates for the distinguished families and class censuses.

k-linked: every at most k members share a point (checked on minimal sets).
centered: all members share a point. filter: closed under intersection,
which on a finite carrier means a single minimal set; ultrafilters are the
principal hyperspaces. Maximality is decided by single-set extensions: the
classes here are closed under unions of chains, so a family is maximal iff
no one additional set keeps the property (asserted against the brute-force
definition in the tests).

The predicates above take one family. Class censuses instead filter the
whole census at once, as bit operations on its array of 64-bit membership
words (`upset_words`), maximality too; the tests hold each filter equal to
its predicate.
The maximal linked families are the self-transversal ones, F = F^T, and are
read off the up-sets on one point fewer by half-cube self-duality (see
`_maxlinked_words`); the shift-invariant ones are the right zeros of G(X),
its shift-invariant core. `class_words` returns a census as that ascending
uint64 array, which views take directly; `enumerate_class` and
`maximal_linked_families` wrap its entries as Hyperspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .groupoids import MAX_ENUM_CARRIER, Groupoid
from .hyperspaces import (Hyperspace, _bit_rows, _gather_words, _point_words,
                          _upsets, mask_elements, upset_words)
from .products import _image_table, _preimage_table

CLASS_TOKENS = ("all", "filters", "ultrafilters", "linked", "centered",
                "maxlinked", "shiftinv")


def _intersect(masks) -> int:
    acc = -1
    for m in masks:
        acc &= m
    return acc


def is_k_linked(f: Hyperspace, k: int) -> bool:
    """Every subfamily of at most k members has a common point."""
    if k < 1:
        raise InputError("k must be at least 1")
    mins = f.minimal_sets()
    t = min(k, len(mins))
    return all(_intersect(c) != 0 for c in itertools.combinations(mins, t))


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

    Adding A keeps the family k-linked iff A meets every intersection of
    at most k-1 minimal sets; subfamilies avoiding A were k-linked already.
    """
    if not is_k_linked(f, k):
        return False
    mins = f.minimal_sets()
    t = min(k - 1, len(mins))
    inters = [_intersect(c) & ((1 << f.n) - 1)
              for c in itertools.combinations(mins, t)]
    bits = f.bits
    for a in range(1, 1 << f.n):
        if (bits >> a) & 1:
            continue
        if all(i & a for i in inters):
            return False
    return True


def is_shift_invariant(g: Groupoid, f: Hyperspace) -> bool:
    """x * A and x^-1 A stay in the family for every member A and every x."""
    if f.n != g.n:
        raise InputError(f"carrier mismatch: groupoid has {g.n}, hyperspace {f.n}")
    img, pre = _image_table(g), _preimage_table(g)
    bits = f.bits
    for m in f.minimal_sets():
        for x in range(g.n):
            if not (bits >> img[x][m]) & 1:
                return False
            if not (bits >> pre[x][m]) & 1:
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
    linked_up_to = 1
    for k in range(2, n + 1):
        if not is_k_linked(f, k):
            break
        linked_up_to = k
    return ClassFlags(
        linked_up_to=linked_up_to,
        centered=is_centered(f),
        filter=is_filter(f),
        ultrafilter=is_ultrafilter(f),
        maximal_k_linked={k: is_maximal_k_linked(f, k) for k in range(2, n + 1)},
        self_transversal=is_self_transversal(f),
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
    wt = ~_gather_words(_bit_rows(w), flip) & np.uint64((1 << half) - 1)
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


def shift_closures(g: Groupoid) -> dict[int, int | None]:
    """For each non-empty seed A, the word of its closure under supersets,
    x * A and x^-1 A, or None when the closure reaches the empty set.

    A family is shift-invariant iff it contains the closure of each of its
    members, and no member has a closure reaching the empty set.
    """
    n = g.n
    img, pre = _image_table(g), _preimage_table(g)
    out: dict[int, int | None] = {}
    for seed in range(1, 1 << n):
        seen = 1 << seed
        stack = [seed]
        while stack:
            a = stack.pop()
            nxt = [img[x][a] for x in range(n)] + [pre[x][a] for x in range(n)]
            nxt += [a | (1 << i) for i in range(n) if not (a >> i) & 1]
            if 0 in nxt:
                seen = None
                break
            for b in nxt:
                if not (seen >> b) & 1:
                    seen |= 1 << b
                    stack.append(b)
        out[seed] = seen
    return out


def _partitions(n: int, t: int) -> list[list[int]]:
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


def _centered_mask(n: int, words: np.ndarray) -> np.ndarray:
    """F is centered iff F lies inside the principal ultrafilter of some point."""
    everything = (1 << (1 << n)) - 1
    keep = np.zeros(len(words), dtype=bool)
    for p in _point_words(n):
        keep |= (words & np.uint64(everything ^ p)) == 0
    return keep


def _linked_mask(n: int, k: int, words: np.ndarray) -> np.ndarray:
    """F fails to be k-linked iff, for some partition of the carrier into
    min(k, n) blocks, the complement of every block is a member.

    Members A_1..A_j (j <= k) with no common point have complements covering
    the carrier; refine that cover into min(k, n) disjoint blocks, each inside
    some complement, and upward closure puts every block's complement in F.
    """
    full = (1 << n) - 1
    keep = np.ones(len(words), dtype=bool)
    for blocks in _partitions(n, min(k, n)):
        m = np.uint64(sum(1 << (full ^ b) for b in blocks))
        keep &= (words & m) != m
    return keep


def _shift_invariant_mask(g: Groupoid, words: np.ndarray) -> np.ndarray:
    """Keep F iff every seed class it meets has its closure inside F.

    Seeds sharing a closure are tested together; the poisoned seeds (closure
    None) must all stay outside F.
    """
    seeds: dict[int | None, int] = {}
    for a, c in shift_closures(g).items():
        seeds[c] = seeds.get(c, 0) | (1 << a)
    keep = np.ones(len(words), dtype=bool)
    for c, s in seeds.items():
        meets = (words & np.uint64(s)) != 0
        if c is None:
            keep &= ~meets
        else:
            c = np.uint64(c)
            keep &= ~meets | ((words & c) == c)
    return keep


def class_words(g: Groupoid, token: str, k: int | None = None) -> np.ndarray:
    """The membership words of a distinguished class, ascending, as uint64.

    Filters and ultrafilters are produced directly (up(A), the filter
    generated by a set A, is the intersection of the principal ultrafilters
    of its points); maximal 2-linked by half-cube self-duality above;
    everything else by masking the census words with the bit filters above.
    Maximal k-linked with k >= 3 then keeps the k-linked survivors F for
    which F | up(A) is not k-linked for any A outside F.
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
    if token == "centered":
        words = words[_centered_mask(n, words)]
    elif token in ("linked", "maxlinked"):
        words = words[_linked_mask(n, k, words)]
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
