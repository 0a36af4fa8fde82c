"""The extended product on hyperspaces, shifts, and maps induced by carrier maps.

For a groupoid (X, *) the product of hyperspaces U and V contains A exactly
when {x : x^-1 A in V} belongs to U, where x^-1 A = {y : x * y in A}. The
mask map t_V[A] = {x : x^-1 A in V}, the right translation by V, is built
from n whole-vector gathers: V's membership string gathered through the
preimage row of each point x is the column "x in t_V[A]" for every A at
once, and the n columns are packed as bit x of 16-bit lanes of one int
(n <= 16) and read back as the 2^n masks. U o V is then U's membership
string gathered through t_V. All of it stays on strings and Python ints.

The equivalent base form (upward closure of all unions of x * V_x over x in
a member of U) is implemented separately and kept exponential on purpose: it
is the independent oracle the fast form is checked against.
"""

from __future__ import annotations

import functools
import itertools
import struct
from operator import itemgetter

from .errors import BudgetExceeded, InputError
from .groupoids import Groupoid, is_homomorphism
from .hyperspaces import Hyperspace, _membership, generate

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


def left_shift(g: Groupoid, a: int, f: Hyperspace) -> Hyperspace:
    """a * F, generated by the images a * M of the minimal sets of F."""
    _require_carrier(g, f)
    img = _image_table(g)
    if not 0 <= a < g.n:
        raise InputError(f"element index {a} out of range [0, {g.n})")
    return generate(g.n, [img[a][m] for m in f.minimal_sets()])


def product(g: Groupoid, u: Hyperspace, v: Hyperspace) -> Hyperspace:
    """U o V = {A : {x : x^-1 A in V} in U}, U's membership gathered through V's transform."""
    _require_carrier(g, u)
    t = product_transform(g, v)
    gathered = "".join(itemgetter(*t)(_membership(g.n, u.bits)))  # [A]: t[A] in U
    return Hyperspace._raw(g.n, int(gathered[::-1], 2))


def product_transform(g: Groupoid, v: Hyperspace) -> tuple[int, ...]:
    """t[A] = mask {x : x^-1 A in V}, so that (U o V).bits gathers U.bits at t.

    Column x, the characters "bit pre[x][A] of V" for every A, is one C-level
    gather of V's membership string through pre[x]. Encoded as UTF-16-LE,
    character A of the column is the 16-bit lane A of a little-endian int,
    "0" or "1" in its low bit; the columns are masked to that bit, shifted to
    bit x and OR-ed, and the lanes are unpacked as explicit little-endian
    uint16 (n <= 16 points fit a lane on every host byte order).

    The right translation by V is the same subset-gather for every U; the
    composition-table builder gathers whole columns through it.
    """
    _require_carrier(g, v)
    nsub = 1 << g.n
    member = _membership(g.n, v.bits)
    low = int.from_bytes(b"\x01\x00" * nsub, "little")     # bit 0 of every lane
    lanes = 0
    for x, row in enumerate(_preimage_table(g)):
        col = "".join(itemgetter(*row)(member))
        lanes |= (int.from_bytes(col.encode("utf-16-le"), "little") & low) << x
    return struct.unpack(f"<{nsub}H", lanes.to_bytes(2 * nsub, "little"))


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
