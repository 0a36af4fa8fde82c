"""Semigroup-theoretic analysis of G(X) and its sub-semigroups.

Everything here works on an explicit SemigroupView: the elements' 64-bit
membership words and their composition table, one read-only 2-D int16
array with entries in [-1, m), as are the builder's point-shift tables;
arithmetic on entries runs in intp. Views take a uint64 word array (a class
census) or Hyperspaces, need carriers up to 6 points and hold at most
MAX_VIEW_ELEMENTS elements, checked before any Hyperspace is built; a view
reads whether it is closed, and its first escape, off its own table. One
builder, `_compose`, fills every table in row order by byte-table gathers of
blocks of columns; over an associative carrier, when the elements are closed
under point shifts on both sides, it gathers one column per right orbit
{V o <h>} at one row per left orbit {<x> o U}, both found by one numpy
reduction over a point-shift table, and if none of those cells escapes it
derives the other cells through the point-shift tables (λ(Z6): 231,561
gathered words for 7.0M cells, about 20–37 ms; all of G(Z5), 57M cells,
about 0.19–0.33 s, on a shared 2-vCPU host). Every other table is gathered
whole.

Cancelability, zeros, the center and the minimal one-sided ideals are
decided on the table, not by the classical characterizations, which stay
checkable statements in the test suite: a cheap necessary filter (one sum
per row and per column, a block of columns), then an exact check of the
survivors only. The minimal one-sided ideals and the isomorphism invariants
read each row or column as the packed set of its entries (`_line_sets`);
like the orbit and generator checks, they hold at most the m x m/8 bytes of
those sets and a few blocks of _LINES lines beside the table.
A closed view built over an associative carrier is associative by the
source paper's theorem (G(X) is a semigroup); every other view takes Light's
test on a greedy generating set. On an associative table the kernel K comes
first (`_kernel`: one element of K by a pairwise product of all elements,
then its two-sided ideal), and the minimal one-sided ideals are the lines of
K only (λ(Z6): 18 of 2,646). The ideal reports read the lines of K on a view
that already holds the verdict True, and all lines on every other view; they
never run Light's test themselves. Sections of an orbit quotient and
isomorphisms of views are one search, `_maps`, for table-preserving maps
with forced propagation. The shift-invariant core is the `shiftinv` class
census of `classify.class_words`: the right zeros of G(X), the families fixed
by every <x>, which hold all or none of each class of subsets under
A ~ x^-1 A.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .classify import class_words
from .errors import BudgetExceeded, GspaceError, InputError
from .groupoids import MAX_ENUM_CARRIER, MAX_VIEW_ELEMENTS, Groupoid
from .hyperspaces import (Hyperspace, _bit_rows, _gather_words, _hyperspace_mask,
                          _point_words, principal, upset_words)
from .products import _image_table, _preimage_table, left_shift, product

SECTION_BUDGET = 10 ** 7
# Every table, point-shift table and lookup result: an index in [-1, m) with
# m <= MAX_VIEW_ELEMENTS. Arithmetic on entries runs in intp: NumPy keeps
# int16 for int16 operands and Python ints alike, and wraps silently.
_INDEX = np.int16
assert MAX_VIEW_ELEMENTS <= np.iinfo(_INDEX).max
_LINES = 64         # table rows or columns read per block by the builder and the analyses
_BATCH = 32         # table columns gathered, or rows derived, per batch
_HASH = np.uint64(0x9E3779B97F4A7C15)   # odd: the multiplier of `_slot`


@dataclass(frozen=True, eq=False)
class SemigroupView:
    """A finite magma extracted from G(X): elements and their composition table.

    `words` holds the elements' membership words in element order, and
    `elements` the same elements as Hyperspaces, built on first use.
    table[i, j] indexes the product of elements i and j, -1 marking one that
    escaped; `closed` (no -1) and `escape` are read off it. Views compare
    by identity. A view holds only what `__post_init__` accepts
    (`_index_array`, `_word_array`): one to MAX_VIEW_ELEMENTS rows and one
    word per row. The table is read-only int16. A caller's int16 table and
    uint64 words are kept and frozen, not copied; another integer table, or
    nested rows, is copied.
    """
    groupoid: Groupoid
    words: np.ndarray | None
    table: np.ndarray
    closed: bool = field(init=False)

    def __post_init__(self):
        table, lo = _index_array(self.table)
        if not (m := len(table)):
            raise InputError("view needs at least one element")
        words = None if self.words is None else _word_array(self.groupoid, self.words)
        if words is not None and len(words) != m:
            raise InputError(f"words need one entry per element, {m}")
        self.__dict__.update(table=table, closed=lo >= 0, words=words)

    @functools.cached_property
    def escape(self) -> tuple[int, int, Hyperspace] | None:
        """The row-major first -1 cell (i, j) and the escaped product of
        elements i and j; None on a closed view or on one without words."""
        if self.closed or self.words is None:
            return None
        i, j = _first_escape(self.table)
        u, v = (Hyperspace._raw(self.groupoid.n, int(self.words[x])) for x in (i, j))
        return i, j, product(self.groupoid, u, v)

    @functools.cached_property
    def elements(self) -> tuple[Hyperspace, ...] | None:
        n = self.groupoid.n
        return None if self.words is None else tuple(
            Hyperspace._raw(n, b) for b in self.words.tolist())

    @property
    def size(self) -> int:
        return len(self.table)

    def label(self, i: int) -> str:
        """Element i's repr, or i on a view without words."""
        return str(i) if self.words is None \
            else repr(Hyperspace._raw(self.groupoid.n, int(self.words[i])))

    @functools.cached_property
    def generators(self) -> np.ndarray:
        """A generating set of a closed view, as a read-only index array.

        Greedy, rarest first: the elements are visited in increasing order
        of their number of cells in the table (stable), and each one not yet
        generated is picked and the generated set closed again by frontier
        steps: the products of the newly generated elements with all
        generated ones on both sides, read _LINES frontier elements at a
        time and marked in a boolean array. An element that is no product
        is visited before every product, and is in every generating set.
        """
        t = _closed_table(self, "generators need a closed view")
        m = self.size
        counts = sum(np.bincount(t[lo:lo + _LINES].ravel(), minlength=m)
                     for lo in range(0, m, _LINES))     # no m x m intp copy
        inside = np.zeros(m, dtype=bool)
        picks = []
        for b in np.argsort(counts, kind="stable").tolist():
            if inside[b]:
                continue
            picks.append(b)
            inside[b] = True
            front = np.array([b])
            while len(front):
                have, fresh = np.flatnonzero(inside), np.zeros(m, dtype=bool)
                for lo in range(0, len(front), _LINES):     # _LINES x |have| cells
                    f = front[lo:lo + _LINES]
                    fresh[t[np.ix_(f, have)]] = True
                    fresh[t[np.ix_(have, f)]] = True
                front = np.flatnonzero(fresh & ~inside)
                inside[front] = True
        gens = np.array(picks, dtype=np.intp)
        gens.setflags(write=False)
        return gens

    @functools.cached_property
    def _light(self) -> bool:
        return _light_holds(self.table, self.generators)

    def is_associative(self) -> bool:
        """Whether (x·y)·z = x·(y·z) for all elements of a closed view; the
        verdict is kept on the (immutable) view.

        A closed view that `subsemigroup_view` builds over an associative
        carrier X is a sub-semigroup of G(X), which is a semigroup for every
        semigroup X (the source paper's main theorem; `_compose` derives most
        of its cells from that associativity). So the build stores the verdict
        True, and no cell is read.

        Every other view (quotients, views over non-associative carriers,
        tables built by hand) takes Light's test (Clifford & Preston I). The
        set M = {b : (x·b)·y = x·(b·y) for all x, y} is closed under the
        product: for b, c in M, (x·(b·c))·y = ((x·b)·c)·y = (x·b)·(c·y) =
        x·(b·(c·y)) = x·((b·c)·y). So the table is associative iff M holds
        the `generators`, and Light's equation is checked on all m^2 cells
        for each generator b only. The m^3 check lives in the tests as the
        reference.
        """
        _closed_table(self, "associativity needs a closed view")
        return self._light

    def index_of(self, h: Hyperspace) -> int:
        """Position of h among the elements, found by comparing words."""
        if self.words is None:
            raise InputError("quotient views have no hyperspace elements")
        hit = np.flatnonzero(self.words == h.bits) if h.n == self.groupoid.n else []
        if not len(hit):
            raise InputError(f"{h!r} is not an element of this view")
        return int(hit[0])


def _index_array(a) -> tuple[np.ndarray, int]:
    """(`a` as read-only _INDEX, not copied if _INDEX; its least entry) if `a` is a square
    integer array of at most MAX_VIEW_ELEMENTS rows with entries in [-1, m) before the cast."""
    try:
        a = np.asarray(a)
    except ValueError:                          # ragged nesting
        a = np.empty(0, dtype=object)
    m = len(a) if a.ndim else 0
    if m > MAX_VIEW_ELEMENTS:                   # from the shape, before any pass
        raise InputError(f"views hold at most {MAX_VIEW_ELEMENTS} elements, got {m}")
    lo = a.min() if a.dtype.kind in "iu" and a.size else 0
    if a.dtype.kind not in "iu" or a.shape != (m, m) or lo < -1 or (a.size and a.max() >= m):
        raise InputError(f"a table must be a 2-D square with entries in [-1, {m})")
    a = a.astype(_INDEX, copy=False)
    a.setflags(write=False)
    return a, int(lo)


def _word_array(g: Groupoid, words) -> np.ndarray:
    """`words`, read-only, if a non-empty 1-D uint64 array of distinct hyperspaces on g."""
    if not isinstance(words, np.ndarray) or words.dtype != np.uint64 or words.ndim != 1:
        raise InputError("element words must be a 1-D uint64 array")
    if not len(words):
        raise InputError("view needs at least one element")
    if len(_distinct(words)) != len(words):
        raise InputError("view elements must be distinct")
    if g.n > MAX_ENUM_CARRIER or not _hyperspace_mask(g.n, words).all():
        raise InputError(f"element words must be hyperspaces on {g.n} points")
    words.setflags(write=False)
    return words


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, sorted: np.unique by one sort and
    one compare, without the numpy.ma import np.unique makes on first use."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _closed_table(view: SemigroupView, message: str) -> np.ndarray:
    """The table of a closed view; InputError(message) on one that is not."""
    if not view.closed:
        raise InputError(message)
    return view.table


def _preimage_bits(g: Groupoid) -> np.ndarray:
    """Row x, column A: pre[x][A] for the 64 masks A (0 past 2^n). Bit A of
    <x> o F is bit pre[x][A] of F."""
    pre = np.zeros((g.n, 64), dtype=np.intp)
    pre[:, :1 << g.n] = _preimage_table(g)
    return pre


def _transforms(pre: np.ndarray, rights) -> np.ndarray:
    """Row j, column A: the mask {x : x^-1 A in rights[j]} for the 64 masks
    A (0 past 2^n), as uint8, where pre = _preimage_bits(g): subset masks of
    n <= 6 points fit a byte. Bit A of U o V is bit t[A] of U, t the row of V."""
    right_rows = _bit_rows(rights)
    return sum(right_rows[:, p] << x for x, p in enumerate(pre))


def _slot(words: np.ndarray, k: int) -> np.ndarray:
    """Each word's slot among 2^k: the top k bits of words * _HASH mod 2^64
    (multiplicative hashing, Knuth, TAOCP vol. 3, 6.4)."""
    return (words * _HASH) >> np.uint64(64 - k)


def _lookup(words: np.ndarray):
    """A function sending an array of words, of any shape and memory layout,
    to their _INDEX indices in `words`, -1 for a word not among them.

    A table of 2^k slots, the least power of two >= 8m (at most 256 KB at
    MAX_VIEW_ELEMENTS), holds at slot `_slot(w, k)` the index of a word w
    with that slot. A word looked up takes the index in its slot if the
    word there is itself. The misses, absent words and those that lost
    their slot to another word (about 5% of a view's words), are found by
    binary search over the sorted words. Every answer is checked, so a free
    slot may hold any index.
    """
    m = len(words)
    order = np.argsort(words, kind="stable").astype(_INDEX)
    ranked = words[order]
    k = (8 * m - 1).bit_length()
    slots = np.zeros(1 << k, dtype=_INDEX)
    slots[_slot(words, k)] = np.arange(m)

    def lookup(gathered: np.ndarray) -> np.ndarray:
        out = slots[_slot(gathered, k)]
        miss = np.nonzero(words[out] != gathered)
        if len(miss[0]):
            w = gathered[miss]
            pos = np.minimum(np.searchsorted(ranked, w), m - 1)
            out[miss] = np.where(ranked[pos] == w, order[pos], -1)
        return out
    return lookup


def _shift_tables(pre: np.ndarray, words: np.ndarray, lookup) -> tuple[np.ndarray, np.ndarray]:
    """(shift, lshift) over an associative carrier, read-only: shift[i, h]
    indexes words[i] o <h> and lshift[i, x] <x> o words[i], -1 if absent.

    Both come from one gather and one lookup: the point transforms for the
    right shifts, and the preimage rows themselves for the left ones (bit A
    of <x> o F is bit pre[x][A] of F).
    """
    n = len(pre)
    both = lookup(_gather_words(words, np.concatenate(
        [_transforms(pre, _point_words(n)), pre]))).reshape(2, n, -1)
    tables = np.ascontiguousarray(both.transpose(0, 2, 1))     # shift, then lshift
    tables.setflags(write=False)
    return tables[0], tables[1]


def _plan(shift: np.ndarray) -> tuple[np.ndarray, ...]:
    """(reps, kid, parent, h) for a shift table: every index is one of the
    representatives or a kid, element kid is element parent < kid shifted
    by point h, and on the builder's tables every parent is a representative.

    An index's parent is the smallest index that reaches it in one shift,
    itself included, and the representatives are their own parents; h is
    the first point with shift[parent, h] == kid. Both come from one
    reduction: the smallest code i * w + h over the cells shift[i, h] that
    hold the index (an index's own code is the largest of its row).
    Over an associative carrier shifting twice is shifting once, by the
    product of the two points, so a smallest reacher is itself reached by
    nothing smaller: a representative.
    """
    m, w = len(shift), shift.shape[1] + 1
    code = np.arange(m) * w + w - 1
    i, h = np.nonzero(shift >= 0)
    np.minimum.at(code, shift[i, h], i * w + h)
    parent, h = np.divmod(code, w)
    kid = np.flatnonzero(parent != np.arange(m))
    return np.flatnonzero(parent == np.arange(m)), kid, parent[kid], h[kid]


def _by_point(kid: np.ndarray, parent: np.ndarray, points: np.ndarray, n: int) \
        -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(point, kids, parents) for each of the n points that has kids, from a
    plan's kid, parent and point arrays: one stable sort, then slices."""
    order = np.argsort(points, kind="stable")
    kid, parent = kid[order], parent[order]
    bounds = np.searchsorted(points[order], np.arange(n + 1)).tolist()
    return [(x, kid[lo:hi], parent[lo:hi])
            for x, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]


def _compose(g: Groupoid, words: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(table, shift): the composition table over `words` and, over an
    associative carrier (else None), the point-shift table; table[i, j] is
    the index in `words` of words[i] o words[j] and shift[i, h] that of
    words[i] o <h>, -1 if absent.

    A gathered column j sends element words' bits through the right
    translation of words[j] (`_transforms`: x is in t[A] iff bit pre[x][A]
    of words[j] is set), and looks the words up (`_lookup`: one hashed slot
    read each, a binary search for the few misses). Columns
    are gathered _BATCH at a time (`_gather_words`) at a set of rows, and
    written straight into the row-major table.

    Over an associative carrier G(X) is a semigroup, so both sides of the
    table follow from a few of its cells:
    - right: words[i] o (V o <h>) = (words[i] o V) o <h>, and the column of
      V o <h> is the column of V sent through the shift table;
    - left: (<x> o U) o V = <x> o (U o V), and the row of <x> o U is the
      row of U sent through the left shift table lshift.
    `_plan` picks the representatives of each side from its shift table,
    and every parent is a representative. When neither shift table holds a
    -1, the representative columns are gathered at the representative rows;
    if that block holds no -1 either, every input of a derivation is in the
    view, and so the table is closed: the kid columns are derived at the
    representative rows, _LINES rows at a time, one point h at a time, then
    every left-kid row from its parent row, _BATCH rows at a time, one point
    x at a time. No temporary exceeds a block of rows. Every other table
    (an escape, or a non-associative carrier) gathers every column at every
    row.
    """
    m = len(words)
    lookup = _lookup(words)
    pre = _preimage_bits(g)
    t = np.empty((m, m), dtype=_INDEX)

    def gather(at, js) -> bool:
        """Fill the cells (at, js), _BATCH columns at a time; whether none holds a -1."""
        at_words, closed = words[at], True
        for lo in range(0, len(js), _BATCH):
            cols = js[lo:lo + _BATCH]
            # `got` lives into the next batch, so malloc does not trim the heap
            # and fault it in again (G(5) on right-zero:5: 686k faults, not 7k)
            got = lookup(_gather_words(at_words, _transforms(pre, words[cols])))
            t[np.ix_(at, cols)] = got.T
            closed &= bool(got.min() >= 0)
        return closed

    if g.associative:
        shift, lshift = _shift_tables(pre, words, lookup)
        rows, lkid, lpar, xs = _plan(lshift)
        reps, kid, parent, hs = _plan(shift)
        derive = min(shift.min(), lshift.min()) >= 0 and gather(rows, reps)
    else:
        shift, derive = None, False
    if not derive:
        everything = np.arange(m)
        gather(everything, everything)
        return t, shift
    shift_t, lshift_t = np.ascontiguousarray(shift.T), np.ascontiguousarray(lshift.T)
    by_point = _by_point(kid, parent, hs, g.n)
    for lo in range(0, len(rows) if by_point else 0, _LINES):
        at = rows[lo:lo + _LINES]
        block = t[at]
        for h, k, p in by_point:
            block[:, k] = shift_t[h].take(block[:, p])
        t[at] = block
    for x, k, p in _by_point(lkid, lpar, xs, g.n):
        for lo in range(0, len(k), _BATCH):
            t[k[lo:lo + _BATCH]] = lshift_t[x].take(t[p[lo:lo + _BATCH]])
    return t, shift


def _light_holds(t: np.ndarray, gens: np.ndarray) -> bool:
    """Light's equation (x·b)·y == x·(b·y) for every b in gens and every x
    and y, over blocks of _LINES rows."""
    for lo in range(0, len(t), _LINES):
        tx = t[lo:lo + _LINES]                  # x·z for the block's x and every z
        for b in gens.tolist():
            if not np.array_equal(t[tx[:, b]], tx[:, t[b]]):
                return False
    return True


def _first_escape(table: np.ndarray) -> tuple[int, int] | None:
    """Row-major first -1 entry of a table, or None, over blocks of _LINES rows."""
    for lo in range(0, len(table), _LINES):
        bad = np.flatnonzero(table[lo:lo + _LINES] < 0)
        if bad.size:
            i, j = divmod(int(bad[0]), table.shape[1])
            return lo + i, j
    return None


def _indices(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


def subsemigroup_view(g: Groupoid, elements) -> SemigroupView:
    """Composition table over the given elements, a uint64 word array or
    Hyperspaces, in their order. The input checks all run before any
    Hyperspace is built."""
    return _build(g, elements)[0]


def _build(g: Groupoid, elements) -> tuple[SemigroupView, np.ndarray | None]:
    """(view, shift): `subsemigroup_view`'s view and its build's point-shift
    table (see `_compose`)."""
    if g.n > MAX_ENUM_CARRIER:
        raise InputError(f"views need carrier <= {MAX_ENUM_CARRIER}")
    raw = isinstance(elements, np.ndarray)
    # a lone item that is no collection is refused with the non-Hyperspaces
    elements = elements if raw else tuple(elements) if isinstance(elements, Iterable) else (None,)
    if (size := elements.size if raw else len(elements)) > MAX_VIEW_ELEMENTS:
        raise InputError(f"views hold at most {MAX_VIEW_ELEMENTS} elements, got {size}")
    if not raw and not all(isinstance(h, Hyperspace) for h in elements):
        raise InputError("view elements must be Hyperspaces or a uint64 word array")
    if not raw and any(h.n != g.n for h in elements):
        raise InputError("carrier mismatch in view elements")
    words = _word_array(g, elements.copy() if raw else
                        np.array([h.bits for h in elements], dtype=np.uint64))
    table, shift = _compose(g, words)
    view = SemigroupView(g, words, table)
    if g.associative:                           # a sub-semigroup of G(X): see is_associative
        view.__dict__["_light"] = True
    return view, shift


# -- special elements --------------------------------------------------------

@dataclass(frozen=True)
class SpecialElements:
    idempotents: tuple[int, ...]
    left_zeros: tuple[int, ...]
    right_zeros: tuple[int, ...]
    zeros: tuple[int, ...]
    identity: int | None
    left_cancelable: tuple[int, ...]
    right_cancelable: tuple[int, ...]


def _lines_passing(t: np.ndarray, cand: np.ndarray, axis: int, test) -> np.ndarray:
    """The candidates c whose row (axis 1) or column (axis 0) of t passes
    `test(c, lines)` in every cell; the lines are taken _LINES at a time, so
    no copy grows with the number of candidates."""
    keep = [cand[:0]]
    for k in range(0, len(cand), _LINES):
        c = cand[k:k + _LINES]
        keep.append(c[test(c, t[c] if axis == 1 else t[:, c]).all(axis=axis)])
    return np.concatenate(keep)


def special_elements(view: SemigroupView) -> SpecialElements:
    """Idempotents (the diagonal), one-sided zeros, zeros, the identity and
    the one-sided cancelable elements of a closed view.

    Each answer is a cheap necessary filter followed by an exact check of
    the survivors only. One int64 sum per row and per column filters: a
    row i of left zero i sums to m*i, a column j of right zero j to m*j,
    and a permutation of range(m), the row of a left cancelable element or
    the column of a right cancelable one, to m(m-1)/2. The survivors'
    lines are then compared in full (zeros) or sorted (cancelable). The
    identity's row and column are both the identity permutation, so its
    candidates are the elements that are cancelable on both sides.
    """
    t = _closed_table(view, "special_elements needs a closed view")
    m = view.size
    ar = np.arange(m)
    row_sums, col_sums = t.sum(axis=1, dtype=np.int64), t.sum(axis=0, dtype=np.int64)
    perm = m * (m - 1) // 2
    lz = _lines_passing(t, np.flatnonzero(row_sums == m * ar), 1,
                        lambda c, rows: rows == c[:, None])
    rz = _lines_passing(t, np.flatnonzero(col_sums == m * ar), 0,
                        lambda c, cols: cols == c)
    lc = _lines_passing(t, np.flatnonzero(row_sums == perm), 1,
                        lambda c, rows: np.sort(rows, axis=1) == ar)
    rc = _lines_passing(t, np.flatnonzero(col_sums == perm), 0,
                        lambda c, cols: np.sort(cols, axis=0) == ar[:, None])
    units = _lines_passing(t, np.intersect1d(lc, rc, assume_unique=True), 1,
                           lambda c, rows: rows == ar)
    units = _lines_passing(t, units, 0, lambda c, cols: cols == ar[:, None])
    return SpecialElements(
        idempotents=_indices(t[ar, ar] == ar),
        left_zeros=tuple(lz.tolist()),
        right_zeros=tuple(rz.tolist()),
        zeros=tuple(np.intersect1d(lz, rz, assume_unique=True).tolist()),
        identity=int(units[0]) if len(units) else None,
        left_cancelable=tuple(lc.tolist()),
        right_cancelable=tuple(rc.tolist()))


def center(view: SemigroupView) -> tuple[int, ...]:
    """Elements commuting with every element of the view.

    The candidates shrink over blocks of _LINES columns: element i stays
    while t[i, j] == t[j, i] for every j of the blocks seen so far. The
    first block reads _LINES rows and columns of the table, the later ones
    only the survivors' cells, and after the last block every survivor has
    been checked against every column.
    """
    t = _closed_table(view, "center needs a closed view")
    alive = np.arange(view.size)
    for lo in range(0, view.size, _LINES):
        hi = lo + _LINES
        alive = alive[(t[alive, lo:hi] == t[lo:hi, alive].T).all(axis=1)]
    return tuple(alive.tolist())


def center_of_gx(g: Groupoid) -> list[Hyperspace]:
    """Center of the full G(X) semigroup for a quasigroup carrier, without
    materializing G(X): the principal ultrafilters <c> of the central points
    c of X, in point order.

    Extremal-element criterion: over a quasigroup, an element commuting with
    min G(X) and max G(X) is principal, and a principal <c> commutes with
    everything iff c is central in X. Then <c> o F and F o <c> are both
    {A : c^-1 A in F}, because x * c = c * x for every point x.
    """
    if not g.quasigroup:
        raise InputError("the extremal-element criterion needs a quasigroup")
    return [principal(g.n, c) for c in g.center()]


# -- ideals ----------------------------------------------------------------------

def _kernel(t: np.ndarray) -> np.ndarray:
    """The kernel K of a closed associative table, as sorted indices.

    One element w of K is the product of all elements, halved pairwise
    (t[a[0::2], a[1::2]], an odd last one carried) in about log2(m)
    gathers: a product with a factor in K lies in K, whatever the
    bracketing. Then K = S¹wS¹: the left ideal L = {w} u column w, and the
    rows of L, read _LINES at a time.
    """
    a = np.arange(len(t))
    while len(a) > 1:
        a = np.concatenate([t[a[:-1:2], a[1::2]], a[len(a) & ~1:]])
    inside = np.zeros(len(t), dtype=bool)
    inside[a] = True
    inside[t[:, a[0]]] = True
    left = np.flatnonzero(inside)
    for lo in range(0, len(left), _LINES):
        inside[t[left[lo:lo + _LINES]]] = True
    return np.flatnonzero(inside)


def minimal_ideal(view: SemigroupView) -> tuple[int, ...]:
    """The kernel: smallest two-sided ideal of an associative closed view,
    found by `_kernel` (held equal to a descent through principal two-sided
    ideals in the tests)."""
    t = _closed_table(view, "minimal_ideal needs a closed view")
    if not view.is_associative():
        raise InputError(
            "minimal_ideal needs an associative view; use the one-sided reports")
    return tuple(_kernel(t).tolist())


def _line_sets(t: np.ndarray, axis: int, lines: np.ndarray | None = None) -> np.ndarray:
    """Each row (axis 1) or column (axis 0) of a table with entries in
    [0, m), or only those in `lines`, as the set of its entries: line i of
    the uint8 result, ceil(m/8) bytes wide, holds bit e (np.packbits order)
    iff e is in the i-th line read.

    One _LINES x m boolean block is set at a time from flat indices and
    packed. For rows, t[lo + j, s] goes to j*m + t[lo + j, s]. For columns,
    the slab t[:, lo:lo + _LINES] is read by rows, in memory order on a
    C-ordered table, and t[s, lo + j] goes to j*m + t[s, lo + j], so the
    scattered writes stay inside the block. Besides the result, a block
    holds at most _LINES x m flat indices.
    """
    m = len(t)
    count = m if lines is None else len(lines)
    sets = np.empty((count, (m + 7) // 8), dtype=np.uint8)
    for lo in range(0, count, _LINES):
        at = slice(lo, lo + _LINES) if lines is None else lines[lo:lo + _LINES]
        k = min(_LINES, count - lo)
        flat = np.arange(k) * m
        block = np.zeros((k, m), dtype=bool)
        block.reshape(-1)[(flat[:, None] + t[at] if axis == 1
                           else t[:, at] + flat).ravel()] = True
        sets[lo:lo + k] = np.packbits(block, axis=1)
    return sets


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _set_sizes(sets: np.ndarray) -> np.ndarray:
    """The number of elements of each packed set (a row of uint8 bytes)."""
    return _POPCOUNT[sets].sum(axis=1, dtype=np.intp)


def _minimal_ideals(t: np.ndarray, axis: int,
                    lines: np.ndarray | None = None) -> list[tuple[int, ...]]:
    """Inclusion-minimal sets among {x} u line x of t, over all rows (axis 1:
    the principal right ideals {x} u x*S) or columns (axis 0: the principal
    left ideals {x} u S*x), or over the lines x in `lines` only.

    The sets are the packed `_line_sets` with bit x set on line x, and are
    deduplicated as single byte strings. Sets of one size cannot contain
    each other, so the distinct sets are visited one size class at a time:
    a set is minimal iff it contains none of the minimal sets of smaller
    sizes, checked _LINES sets against _LINES sets at a time.
    """
    m = len(t)
    ar = np.arange(m) if lines is None else lines
    sets = _line_sets(t, axis, lines)
    sets[np.arange(len(ar)), ar >> 3] |= (128 >> (ar & 7)).astype(np.uint8)
    width = sets.shape[1]
    ideals = _distinct(sets.view(np.dtype((np.void, width))).ravel())
    ideals = ideals.view(np.uint8).reshape(-1, width)
    sizes = _set_sizes(ideals)
    by_size = np.argsort(sizes, kind="stable")
    minimal = ideals[:0]
    for group in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        sets = ideals[group]
        alive = np.ones(len(sets), dtype=bool)
        for lo in range(0, len(sets), _LINES):
            block = sets[lo:lo + _LINES]
            for mlo in range(0, len(minimal), _LINES):
                # a set is not contained in a block set iff it has a bit outside it
                outside = (minimal[mlo:mlo + _LINES, None] & ~block).any(axis=2)
                alive[lo:lo + _LINES] &= outside.all(axis=0)
        minimal = np.concatenate([minimal, sets[alive]])
    return sorted(_indices(np.unpackbits(r, count=m)) for r in minimal)


def _one_sided_ideals(view: SemigroupView, axis: int, report: str) -> list[tuple[int, ...]]:
    """`_minimal_ideals` of a closed view's table over the kernel's lines on a
    view that already holds the verdict that it is associative, else over
    all lines. Only a kept verdict is read: no Light's test runs here."""
    t = _closed_table(view, f"{report} needs a closed view")
    return _minimal_ideals(t, axis, _kernel(t) if view.__dict__.get("_light") else None)


def minimal_left_ideals(view: SemigroupView) -> list[tuple[int, ...]]:
    """Inclusion-minimal principal left ideals {x} u S*x.

    In a finite semigroup they are the minimal left ideals, exactly the sets
    S¹x for x in the kernel K (Clifford & Preston I, ch. 3). So on a view
    that holds the verdict True (a built view over an associative carrier,
    or one whose `is_associative()` has returned True) only the |K| columns
    of the kernel are read; every other view reads all m columns.
    """
    return _one_sided_ideals(view, 0, "minimal_left_ideals")


def minimal_right_ideals(view: SemigroupView) -> list[tuple[int, ...]]:
    """Inclusion-minimal principal right ideals {x} u x*S: the sets xS¹ for x
    in the kernel, read from its |K| rows on a view that holds the verdict
    True, as in `minimal_left_ideals`; from all m rows on every other view."""
    return _one_sided_ideals(view, 1, "minimal_right_ideals")


# -- orbits and quotients ----------------------------------------------------------

@dataclass(frozen=True)
class OrbitDecomposition:
    view: SemigroupView
    orbits: tuple[tuple[int, ...], ...]     # element indices, each sorted
    orbit_of: tuple[int, ...]               # element index -> orbit index
    representatives: tuple[int, ...]        # canonical member per orbit
    quotient: SemigroupView


def orbits(g: Groupoid, elements) -> OrbitDecomposition:
    """Right-action orbit partition and the induced quotient semigroup.

    Requires a group carrier, a product-closed element set that is closed
    under right shifts by points, and verifies quotient well-definedness
    (representatives shifted on the left land in the expected orbit), one
    point at a time, instead of assuming it. Over a group, row i of the
    build's point-shift table is the whole orbit of element i, so its
    minimum is the orbit's representative.
    """
    if not g.is_group():
        raise InputError("orbit decomposition needs a group carrier")
    view, shift = _build(g, elements)
    if not view.closed:
        i, j, p = view.escape
        raise InputError(f"element set not closed under the product: "
                         f"{view.label(i)} o {view.label(j)} = {p!r}")
    if (escape := _first_escape(shift)) is not None:
        i, h = escape
        p = product(g, Hyperspace._raw(g.n, int(view.words[i])), principal(g.n, h))
        raise InputError(f"element set not closed under right shifts: "
                         f"{view.label(i)} o point -> {p!r}")
    reps, orbit_of = np.unique(shift.min(axis=1), return_inverse=True)
    t, orbit_of = view.table, orbit_of.astype(_INDEX)
    qtab = orbit_of[t[np.ix_(reps, reps)]]
    # well-definedness: shifting the left factor by any point must not move
    # the product's orbit; per point, _LINES whole shifted rows at a time,
    # then their representative columns
    if not all(np.array_equal(orbit_of.take(t.take(shift[reps[lo:lo + _LINES], h], axis=0)
                                            .take(reps, axis=1)), qtab[lo:lo + _LINES])
               for lo in range(0, len(reps), _LINES) for h in range(g.n)):
        raise InputError(
            "quotient multiplication ill-defined: the orbit "
            "relation is not a congruence (the carrier must be "
            "a commutative group for point shifts to slide past "
            "the left factor)")
    return OrbitDecomposition(
        view=view,
        orbits=tuple(tuple(sorted(set(row))) for row in shift[reps].tolist()),
        orbit_of=tuple(orbit_of.tolist()),
        representatives=tuple(reps.tolist()),
        quotient=SemigroupView(g, None, qtab))


# -- homomorphism search -------------------------------------------------------------

def _maps(t1, t2, cls1, cls2, budget, first=False) -> tuple[list[np.ndarray], int]:
    """The injective maps phi (arrays a -> phi(a)) from table t1 into table
    t2 with cls2[phi(a)] == cls1[a] and phi(t1[a, b]) = t2[phi(a), phi(b)]:
    all of them, or the first if `first`; and the number of search nodes.

    Depth first over the domain, fewest candidates first (stable), each
    element trying its unused candidates in index order. Each newly mapped
    a, newest first, reads x*y, then y*x, for x = phi(a) and each image y,
    oldest first; a read maps t1[a, b] (t1[b, a]) to the cell, matches its
    image, or rejects the choice. So every pair of mapped elements is read.
    A node is a candidate tried or a read up to and including the first
    conflict; past `budget` nodes BudgetExceeded is raised. The map only
    loses its newest entries, so it is a stack of arrays, and an element's
    2k reads are checked at once by numpy. The frames are a list: the
    depth does not grow with the domain.
    """
    m1, m2 = len(t1), len(t2)
    t1, t2 = t1.ravel(), t2.ravel()
    phi = np.full(m1, -1, dtype=np.intp)        # domain -> image, or -1
    used = np.zeros(m2, dtype=bool)
    # row i of keys (vals) is the i-th mapped element b (its image y) as
    # (b, b*m1), so keys[:k] + keys[i, ::-1] are the flat cells (a, b), (b, a)
    keys, vals = np.empty((m1, 2), dtype=np.intp), np.empty((m1, 2), dtype=np.intp)
    slots = np.full(m1, 2 * m1), np.full(m2, 2 * m1)     # past every read position
    counts = np.bincount(cls2, minlength=int(cls1.max(initial=-1)) + 1)
    members = np.split(np.argsort(cls2, kind="stable"), np.cumsum(counts)[:-1])
    order = np.argsort(counts[cls1], kind="stable").tolist()
    maps, frames = [], []       # frame: [pos, element, candidates, next one, map size]
    nodes = size = 0

    def firsts(slot, ks, at):
        """Which of the positions `at` holds the first of its key."""
        np.minimum.at(slot, ks, at)
        first, slot[ks] = slot[ks] == at, 2 * m1
        return first

    def propagate() -> bool:
        nonlocal nodes, size
        nodes += 1                              # the candidate
        stack = [size - 1]
        while stack:
            j = stack.pop()
            d = t1.take((keys[:size] + keys[j, ::-1]).ravel())
            p = t2.take((vals[:size] + vals[j, ::-1]).ravel())
            img = phi.take(d)
            fresh = img < 0
            new = fresh.any()
            if new:     # the first read of an unmapped element maps it to an unused candidate
                at = fresh.nonzero()[0]
                at = at[firsts(slots[0], d[at], at)]
                dn, pn = d[at].astype(np.intp), p[at].astype(np.intp)    # dn * m1 in intp
                phi[dn] = pn
                bad = phi.take(d) != p
                phi[dn] = -1
                bad[at[used[pn] | (cls2[pn] != cls1[dn]) | ~firsts(slots[1], pn, at)]] = True
            else:
                bad = img != p
            hit = int(bad.argmax())
            nodes += hit + 1 if bad[hit] else len(p)
            if nodes > budget:
                raise BudgetExceeded(f"search exceeded {budget} nodes")
            if bad[hit]:
                return False
            if new:
                rows, size = slice(size, size + len(at)), size + len(at)
                keys[rows, 0], keys[rows, 1], vals[rows, 0], vals[rows, 1] = dn, dn * m1, pn, pn * m2
                phi[dn], used[pn] = pn, True
                stack.extend(range(rows.start, size))
        return True

    def enter(pos: int) -> None:
        while pos < m1 and phi[order[pos]] >= 0:
            pos += 1
        if pos == m1:
            maps.append(phi.copy())
        else:
            cands = members[cls1[order[pos]]]
            frames.append([pos, order[pos], cands[~used[cands]].tolist(), 0, size])

    enter(0)
    while frames and not (first and maps):
        pos, a, cands, i, base = frame = frames[-1]
        phi[keys[base:size, 0]], used[vals[base:size, 0]] = -1, False   # the last choice
        size = base
        if i == len(cands):
            frames.pop()
            continue
        frame[3], x = i + 1, cands[i]
        keys[size], vals[size] = (a, a * m1), (x, x * m2)
        phi[a], used[x], size = x, True, size + 1
        if propagate():
            enter(pos + 1)
    return maps, nodes


# -- transversal sections -----------------------------------------------------------

@dataclass(frozen=True)
class SectionSearch:
    decomposition: OrbitDecomposition
    sections: tuple[tuple[int, ...], ...]   # element indices, sorted per section
    nodes: int


def find_sections(g: Groupoid, elements, budget: int = SECTION_BUDGET) -> SectionSearch:
    """All product-closed systems of one representative per orbit.

    Such a system T is the image of a homomorphic section s of the quotient
    map (s(o) is o's member in T): `orbits` verified that x*y lies in the
    orbit o1*o2 for x in o1 and y in o2, so T is closed iff s(o1)*s(o2) =
    s(o1*o2). The sections are the maps `_maps` finds from the quotient's
    table into the view's, an orbit's members its candidates: a chosen pair
    of representatives pins the representative of its product's orbit.
    """
    dec = orbits(g, elements)
    t = dec.view.table
    maps, nodes = _maps(dec.quotient.table, t, np.arange(len(dec.orbits)),
                        np.asarray(dec.orbit_of), budget)
    sections = tuple(sorted(tuple(sorted(s.tolist())) for s in maps))
    for sec in sections:
        member = np.zeros(len(t), dtype=bool)
        member[list(sec)] = True
        if not member[t[np.ix_(sec, sec)]].all():
            raise GspaceError(f"section {sec} is not closed under the product")
    return SectionSearch(decomposition=dec, sections=sections, nodes=nodes)


# -- isomorphism -----------------------------------------------------------------

def _invariants(t: np.ndarray) -> np.ndarray:
    """Per element, one int64 that isomorphisms preserve: whether it and its
    square are idempotent, and the numbers of distinct entries in its row
    and in its column, the sizes of its `_line_sets`."""
    m, ar = len(t), np.arange(len(t))
    sq = t[ar, ar]
    rows, cols = (_set_sizes(_line_sets(t, axis)) for axis in (1, 0))
    return (((sq == ar) * 2 + (t[sq, sq] == sq)) * (m + 1) + rows) * (m + 1) + cols


def are_isomorphic(v1: SemigroupView, v2: SemigroupView) -> tuple[int, ...] | None:
    """A table-preserving bijection as a tuple (i -> image index), or None:
    between tables of one size, the first injective homomorphism `_maps`
    finds, an element's candidates those with its invariants. Past
    SECTION_BUDGET search nodes BudgetExceeded is raised."""
    t1, t2 = (_closed_table(v, "isomorphism search needs closed views") for v in (v1, v2))
    if v1.size != v2.size:
        return None
    k1, k2 = _invariants(t1), _invariants(t2)
    if not np.array_equal(np.sort(k1), np.sort(k2)):
        return None
    cls = np.unique(np.concatenate([k1, k2]), return_inverse=True)[1]
    maps, _ = _maps(t1, t2, cls[:v1.size], cls[v1.size:], SECTION_BUDGET, first=True)
    return tuple(maps[0].tolist()) if maps else None


# -- right cancelability certificates -----------------------------------------------

@dataclass(frozen=True)
class CancelCertificate:
    right_cancelable: bool | None   # None when no scope was available
    scope: str                      # what the brute-force ran over
    translates_distinct: bool       # the points x o F are pairwise distinct
    disjoint_family: tuple[int, ...] | None  # S_x per point, or None


def right_cancelable_certificate(g: Groupoid, f: Hyperspace,
                                 within: SemigroupView | None = None) -> CancelCertificate:
    """Brute-force right cancelability plus the two classical conditions.

    (a) injectivity of Y -> Y o F over all of G(X) (carrier <=
    MAX_ENUM_CARRIER) or over a supplied sub-semigroup, as one column of
    distinct words Y o F, gathered MAX_VIEW_ELEMENTS words at a time and
    sorted in place (G(6): two word arrays of about 60 MB);
    (b) pairwise distinctness of the point translates <x> o F = x * F;
    (c) sets S_x in F n F^T with pairwise disjoint translates x * S_x: the
    first such tuple in ascending mask order, by backtracking over the
    minimal sets of F n F^T only. F n F^T is an up-set, and shrinking an S_x
    to a minimal set inside it keeps the translates disjoint and lowers its
    mask, so the first tuple over all members is made of minimal sets.
    """
    if f.n != g.n:
        raise InputError("carrier mismatch")
    if within is not None:
        if within.words is None or within.groupoid.n != g.n:
            raise InputError("the scope `within` needs a view of hyperspaces on the same carrier")
        pool = within.words
        scope = f"subsemigroup({len(pool)})"
    elif g.n <= MAX_ENUM_CARRIER:
        pool = upset_words(g.n)
        scope = "G(X)"
    else:
        pool = None
        scope = f"skipped (carrier > {MAX_ENUM_CARRIER} and no sub-semigroup supplied)"
    cancelable = None
    if pool is not None:
        index, col = _transforms(_preimage_bits(g), [f.bits]), np.empty_like(pool)
        for lo in range(0, len(pool), MAX_VIEW_ELEMENTS):   # a gather holds 64 B per word
            chunk = slice(lo, lo + MAX_VIEW_ELEMENTS)
            col[chunk] = _gather_words(pool[chunk], index)[0]
        col.sort()
        cancelable = bool((col[1:] != col[:-1]).all())
    translates_distinct = len({left_shift(g, x, f) for x in range(g.n)}) == g.n
    img = _image_table(g)
    mins = (f & f.transversal()).minimal_sets()
    family: tuple[int, ...] | None = None
    chosen: list[int] = []

    def search(x: int, used: int) -> bool:
        nonlocal family
        if x == g.n:
            family = tuple(chosen)
            return True
        for s in mins:
            tr = img[x][s]
            if tr & used:
                continue
            chosen.append(s)
            if search(x + 1, used | tr):
                return True
            chosen.pop()
        return False

    search(0, 0)
    return CancelCertificate(
        right_cancelable=cancelable,
        scope=scope,
        translates_distinct=translates_distinct,
        disjoint_family=family)


def lambda_view(g: Groupoid) -> SemigroupView:
    """The maximal-linked families of the carrier as a closed view."""
    return subsemigroup_view(g, class_words(g, "maxlinked", 2))
