"""The extended product on hyperspaces, shifts, and maps induced by carrier maps.

For a groupoid (X, *) the product of hyperspaces U and V contains A exactly
when T(A) = {x : x^-1 A in V} belongs to U, where x^-1 A = {y : x * y in A}.
`product` reads it as a union of meets of left shifts, one Python int
(bit A for mask A) per point, with no associativity used (proof at
`product`): U o V = union over u in min U of the meet over x in u of <x> o V.

The equivalent base form (upward closure of all unions of x * V_x over x in
a member of U) is implemented separately and kept exponential on purpose: it
is the independent oracle the fast form is checked against.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BudgetExceeded, InputError
from .groupoids import Groupoid, is_homomorphism
from .hyperspaces import Hyperspace, _up, generate

VIA_BASE_BUDGET = 10 ** 6


def _subset_map(sing: list[int]) -> tuple[int, ...]:
    """row[A] = OR of sing[y] over the points y in A, by doubling: once the
    row covers the masks below 2^y, the masks A + {y} follow in order as
    row[A] | sing[y]."""
    row = [0]
    for s in sing:
        row += [r | s for r in row]
    return tuple(row)


@functools.lru_cache(maxsize=32)
def _preimage_table(g: Groupoid) -> tuple[tuple[int, ...], ...]:
    """pre[x][A] = mask of {y : x * y in A}."""
    n = g.n     # the singleton {z} maps to {y : x * y = z}
    return tuple(_subset_map([sum(1 << y for y in range(n) if row[y] == z)
                              for z in range(n)]) for row in g.table)


@functools.lru_cache(maxsize=32)
def _image_table(g: Groupoid) -> tuple[tuple[int, ...], ...]:
    """img[x][A] = mask of x * A = {x * y : y in A}."""
    return tuple(_subset_map([1 << z for z in row]) for row in g.table)


def preimage_shift(g: Groupoid, x: int, mask: int) -> int:
    """The set {y : x * y in A}; may be empty."""
    if not 0 <= x < g.n:
        raise InputError(f"element index {x} out of range [0, {g.n})")
    if not 0 <= mask < (1 << g.n):
        raise InputError(f"subset mask {mask} out of range")
    return _preimage_table(g)[x][mask]


def _require_carrier(g: Groupoid, *hs: Hyperspace) -> None:
    for h in hs:
        if h.n != g.n:
            raise InputError(f"carrier mismatch: groupoid has {g.n}, hyperspace {h.n}")


def _shift_word(n: int, row: tuple[int, ...], mins) -> int:
    """The word of <x> o V = up{x * M : M in mins}, for row = img[x] and
    mins = min V. The base bits are set in a byte buffer: OR-ing 1 << (x * M)
    into a 2^n-bit int would cost Theta(2^n) per minimal set."""
    base = bytearray((1 << n) // 8 + 1)
    for m in mins:
        k = row[m]
        base[k >> 3] |= 1 << (k & 7)
    return _up(n, int.from_bytes(base, "little"))


def left_shift(g: Groupoid, a: int, f: Hyperspace) -> Hyperspace:
    """a * F = <a> o F, generated by the images a * M of the minimal sets of F."""
    _require_carrier(g, f)
    if not 0 <= a < g.n:
        raise InputError(f"element index {a} out of range [0, {g.n})")
    return Hyperspace._raw(g.n, _shift_word(g.n, _image_table(g)[a], f.minimal_sets()))


def product(g: Groupoid, u: Hyperspace, v: Hyperspace) -> Hyperspace:
    """U o V = {A : T(A) in U}, T(A) = {x : x^-1 A in V}, is the union over
    u in min U of the meet over x in u of <x> o V:
      * U is an up-set, so T(A) is in U iff some u in min U lies in T(A);
      * u lies in T(A) iff A is in <x> o V = {A : x^-1 A in V} for all x in u;
      * <x> o V = up{x * M : M in min V}: M <= x^-1 A iff x * M <= A.
    One shift word per point of a minimal set of U, then word ANDs and ORs."""
    _require_carrier(g, u, v)
    img, vmins = _image_table(g), v.minimal_sets()
    shift = {}      # the bit of x -> the word of <x> o V
    bits = 0
    for um in u.minimal_sets():
        acc = -1
        while um:
            low = um & -um
            if low not in shift:
                shift[low] = _shift_word(g.n, img[low.bit_length() - 1], vmins)
            acc &= shift[low]
            um ^= low
        bits |= acc
    return Hyperspace._raw(g.n, bits)


def product_via_base(g: Groupoid, u: Hyperspace, v: Hyperspace,
                     budget: int = VIA_BASE_BUDGET) -> Hyperspace:
    """Oracle form of the product: closure of all unions of x * V_x.

    U ranges over the minimal sets of U and each V_x independently over the
    minimal sets of V; all selector families are enumerated exactly. Refuses
    instances whose selector count exceeds `budget`.
    """
    _require_carrier(g, u, v)
    vmins = v.minimal_sets()
    count = sum(len(vmins) ** bin(um).count("1") for um in u.minimal_sets())
    if count > budget:
        raise BudgetExceeded(
            f"product_via_base would enumerate {count} selector families "
            f"(budget {budget})")
    img = _image_table(g)
    base = []
    for um in u.minimal_sets():
        xs = [i for i in range(g.n) if (um >> i) & 1]
        for choice in itertools.product(vmins, repeat=len(xs)):
            acc = 0
            for x, vx in zip(xs, choice):
                acc |= img[x][vx]
            base.append(acc)
    return generate(g.n, base)


def induced_map(mapping, g1: Groupoid, g2: Groupoid, f: Hyperspace,
                require_homomorphism: bool = False) -> Hyperspace:
    """Push a hyperspace forward along a carrier map (generate over images)."""
    _require_carrier(g1, f)
    mapping = list(mapping)
    if len(mapping) != g1.n or any(not 0 <= m < g2.n for m in mapping):
        raise InputError("mapping must send the first carrier into the second")
    if require_homomorphism and not is_homomorphism(g1, g2, mapping):
        raise InputError("mapping is not a homomorphism")
    base = []
    for m in f.minimal_sets():
        img = 0
        for i in range(g1.n):
            if (m >> i) & 1:
                img |= 1 << mapping[i]
        base.append(img)
    return generate(g2.n, base)
