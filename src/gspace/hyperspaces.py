"""Inclusion hyperspaces over a finite carrier.

An inclusion hyperspace is a non-empty, upward-closed family of non-empty
subsets of the carrier {0, .., n-1}. A subset is an n-bit mask; a hyperspace
is a 2^n-bit membership vector indexed by mask value (bit A set iff the
subset with mask A belongs to the family). The vector is the canonical
identity: equality, hashing, and all report ordering compare it directly.

The bit at position 0 (the empty set) is permanently zero, and the bit at
position 2^n - 1 (the full carrier) is permanently one.

Single hyperspaces hold their vector as a Python int (up to n = 16), built
and checked by word shifts, not by walking the 2^n subsets: shifting the
members without point i by 2^i adds i to each. The census of all
hyperspaces on n <= 6 points is one ascending numpy uint64 array of these
vectors (`upset_words`), built by the half-cube decomposition;
`enumerate_all` wraps its entries as Python ints, and `format_words`
renders the literals of a word array without wrapping them.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from .errors import InputError
from .groupoids import MAX_CARRIER, MAX_ENUM_CARRIER


def subset_mask(n: int, elements) -> int:
    """Mask for a collection of element indices."""
    m = 0
    for e in elements:
        if not 0 <= e < n:
            raise InputError(f"element index {e} out of range [0, {n})")
        m |= 1 << e
    return m


def mask_elements(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


@functools.cache
def _point_words(n: int) -> tuple[int, ...]:
    """For each point i, the word with bit A set iff mask A contains i.

    Bit A of that word is bit i of A, so it repeats a block of 2^i zeros
    then 2^i ones; it is also the word of the principal ultrafilter of i.
    """
    nsub = 1 << n
    return tuple(((1 << nsub) - 1) // ((1 << (2 << i)) - 1)
                 * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(n))


_BYTE_BITS = tuple(tuple(b for b in range(8) if (v >> b) & 1) for v in range(256))
_REVERSED = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))     # bits of a byte reversed


def _membership(n: int, bits: int) -> str:
    """The membership vector as a string of 2^n "0"/"1" characters, indexed by
    mask: character A is "1" iff bit A is set. These are the binary digits
    reversed, padded to 2^n by a sentinel bit at 2^n that the slice drops."""
    return bin(bits | 1 << (1 << n))[:2:-1]


def _check_carrier(n: int) -> None:
    if not 1 <= n <= MAX_CARRIER:
        raise InputError(f"carrier size must be in [1, {MAX_CARRIER}], got {n}")


class Hyperspace:
    """Immutable monotone family of non-empty subsets of an n-element carrier."""

    __slots__ = ("n", "bits", "_mins")

    def __init__(self, n: int, bits: int):
        _check_carrier(n)
        full = (1 << n) - 1
        if bits & 1:
            raise InputError("the empty set cannot be a member")
        if not (bits >> full) & 1:
            raise InputError("the full carrier must be a member (family non-empty)")
        if bits >> (1 << n):
            raise InputError("membership vector has bits beyond 2^n positions")
        gaps = 0    # bit A: A is a member and, for some i, A + {i} is not
        for i, c in enumerate(_point_words(n)):
            gaps |= bits & ~c & ~(bits >> (1 << i))
        if gaps:
            a = (gaps & -gaps).bit_length() - 1
            b = next(a | 1 << i for i in range(n) if not (bits >> (a | 1 << i)) & 1)
            raise InputError(f"family not upward closed: {a:b} in, {b:b} out")
        self.n = n
        self.bits = bits
        self._mins = None

    @classmethod
    def _raw(cls, n: int, bits: int) -> "Hyperspace":
        """Trusted constructor skipping the monotonicity scan."""
        h = object.__new__(cls)
        h.n = n
        h.bits = bits
        h._mins = None
        return h

    # -- membership ---------------------------------------------------------

    def __contains__(self, mask: int) -> bool:
        return bool((self.bits >> mask) & 1)

    def members(self) -> Iterator[int]:
        """All member masks in ascending mask order."""
        bits = self.bits
        for a in range(1, 1 << self.n):
            if (bits >> a) & 1:
                yield a

    def minimal_sets(self) -> tuple[int, ...]:
        """The canonical antichain base: inclusion-minimal members, ascending.

        A member is minimal iff no member is one point smaller. Shifting the
        word left by 2^i moves bit A - 2^i onto bit A; masking with the word
        of the sets containing point i keeps the A for which A - {i} is in.
        The set bits are read byte by byte: peeling them one at a time off
        a 2^n-bit int would cost Theta(2^n) per minimal set.
        """
        if self._mins is None:
            bits = self.bits
            non = 0
            for i, c in enumerate(_point_words(self.n)):
                non |= (bits << (1 << i)) & c
            rest = (bits & ~non).to_bytes(((1 << self.n) + 7) // 8, "little")
            self._mins = tuple(8 * pos + b for pos, v in enumerate(rest) if v
                               for b in _BYTE_BITS[v])
        return self._mins

    # -- lattice and transversality -----------------------------------------

    def __and__(self, other: "Hyperspace") -> "Hyperspace":
        if self.n != other.n:
            raise InputError("carrier mismatch")
        return Hyperspace._raw(self.n, self.bits & other.bits)

    def __or__(self, other: "Hyperspace") -> "Hyperspace":
        if self.n != other.n:
            raise InputError("carrier mismatch")
        return Hyperspace._raw(self.n, self.bits | other.bits)

    def transversal(self) -> "Hyperspace":
        """Sets meeting every member: E in F^T iff the complement of E is not in F.

        Bit A of the result is bit (full - A) of the complement word, i.e. the
        2^n bits reversed: each byte is reversed by a table, the byte order by
        reading the bytes big-endian, and the padding of a word shorter than
        its bytes (n <= 2) is shifted out.
        """
        nsub = 1 << self.n
        size = (nsub + 7) // 8
        comp = (self.bits ^ ((1 << nsub) - 1)).to_bytes(size, "little")
        return Hyperspace._raw(self.n, int.from_bytes(comp.translate(_REVERSED), "big")
                               >> (8 * size - nsub))

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Hyperspace)
                and self.n == other.n and self.bits == other.bits)

    def __hash__(self):
        return hash((self.n, self.bits))

    def __lt__(self, other: "Hyperspace"):
        return (self.n, self.bits) < (other.n, other.bits)

    def __repr__(self):
        sets = ",".join("{" + ",".join(map(str, mask_elements(m))) + "}"
                        for m in self.minimal_sets())
        return f"<{sets}>"


# -- constructors -------------------------------------------------------------

def _up(n: int, bits: int) -> int:
    """The upward closure of a word: for each point i in turn, the members
    without i shifted by 2^i (adding i) join it. A word closed under adding
    points 0..i-1 stays closed under them after the pass for i, so one pass
    per point suffices."""
    for i, c in enumerate(_point_words(n)):
        bits |= (bits & ~c) << (1 << i)
    return bits


def generate(n: int, base) -> Hyperspace:
    """Upward closure of a base: A is a member iff some base set is a subset of A."""
    _check_carrier(n)
    base = list(base)
    if not base:
        raise InputError("base must contain at least one set")
    bits = 0
    for b in base:
        if b == 0:
            raise InputError("base sets must be non-empty")
        if not 0 < b < 1 << n:
            raise InputError(f"base mask {b} out of range")
        bits |= 1 << b
    return Hyperspace._raw(n, _up(n, bits))


def principal(n: int, x: int) -> Hyperspace:
    """The principal ultrafilter of a point: all sets containing x (its point word)."""
    _check_carrier(n)
    if not 0 <= x < n:
        raise InputError(f"element index {x} out of range [0, {n})")
    return Hyperspace._raw(n, _point_words(n)[x])


def smallest(n: int) -> Hyperspace:
    """min G(X) = {X}."""
    _check_carrier(n)
    full = (1 << n) - 1
    return Hyperspace._raw(n, 1 << full)


def largest(n: int) -> Hyperspace:
    """max G(X) = all non-empty subsets."""
    _check_carrier(n)
    nsub = 1 << n
    return Hyperspace._raw(n, ((1 << nsub) - 1) & ~1)


# -- membership words in numpy ------------------------------------------------

def _bit_rows(words) -> np.ndarray:
    """Row i, column A: bit A of words[i], as a (len(words), 64) uint8 array."""
    words = np.asarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")


def _gather_words(words, index) -> np.ndarray:
    """Bit gathers of every word, one per row of `index`, a (B, 64) array of
    bit positions: out[b, i] has bit A set iff words[i] has bit index[b, A].

    Per gather, source bit p sets the output bits mask[p] (the A with
    index[b, A] = p), and byte s of a word is looked up whole in a 256-entry
    table: lut[s][v] is the OR of mask[8s + k] over the set bits k of v,
    built by doubling v. Only the bytes that the index reads get a table
    (one up to n = 3, 2^n / 8 on n points), so a gathered word is the OR of
    at most 8 table reads; the tables of one gather take at most 16 KB.
    Each table read fetches the B gathers of one byte value at once, so the
    result is the transpose of an (N, B) array; callers bound B.
    """
    index = np.asarray(index)
    b = len(index)
    nb = int(index.max(initial=0)) // 8 + 1        # bytes 0..nb-1 are read
    mask = np.zeros((8 * nb, b), dtype=np.uint64)
    np.bitwise_or.at(mask, (index, np.arange(b)[:, None]),
                     np.uint64(1) << np.arange(64, dtype=np.uint64))
    mask = mask.reshape(nb, 8, b)                   # [byte s, bit k, gather]
    lut = np.zeros((nb, 256, b), dtype=np.uint64)   # [byte s, byte value, gather]
    for k in range(8):
        np.bitwise_or(lut[:, :1 << k], mask[:, k, None], out=lut[:, 1 << k:2 << k])
    lut = lut.reshape(256 * nb, b)
    flat = np.asarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8).T[:nb] \
        + np.arange(0, 256 * nb, 256)[:, None]     # row 256s + byte s, per byte
    out = lut.take(flat[0], axis=0)
    part = np.empty_like(out)
    for s in range(1, nb):
        out |= lut.take(flat[s], axis=0, out=part)
    return out.T


def _hyperspace_mask(n: int, words: np.ndarray) -> np.ndarray:
    """Which uint64 words are hyperspaces on n <= 6 points: the same checks
    as the Hyperspace constructor, where upward closure means that shifting
    the members without point i by 2^i (adding i) lands on members only."""
    nsub = 1 << n
    valid = np.uint64((1 << nsub) - 1)
    full = np.uint64(1 << (nsub - 1))
    ok = ((words & ~valid) == 0) & ((words & np.uint64(1)) == 0) & ((words & full) != 0)
    for i, c in enumerate(_point_words(n)):
        without = words & (valid ^ np.uint64(c))
        ok &= ((without << np.uint64(1 << i)) & ~words) == 0
    return ok


# -- exhaustive enumeration ----------------------------------------------------

_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354)   # up-sets on m = 0..6 points


def _half_cube(words: np.ndarray, bounds: np.ndarray, i: int) -> Iterator[np.ndarray]:
    """The half-cube step: the words f1 << 2^i | f0 of up-sets on i + 1
    points, for f1 in `words` and f0 in `words` inside f1's bound (bounds[j]
    for f1 = words[j]), ascending, a block of f1 rows at a time.

    `words` are up-sets on i points, ascending. A block of D(i - 1) rows (as
    many as there are up-sets on one point fewer) is tested as one outer AND
    against the words up to the block's largest bound (a subset's word is
    never above its superset's): at most 20 x 168 words on 4 points and
    168 x 7,581 (10 MB) on 5.
    """
    step, high = _DEDEKIND[max(i - 1, 0)], words << np.uint64(1 << i)
    for s in range(0, len(words), step):
        b = bounds[s:s + step]
        cand = words[:np.searchsorted(words, b.max(), "right")]
        inside = (cand & ~b[:, None]) == 0
        yield (high[s:s + step, None] | cand)[inside]


_UPSETS: dict[int, np.ndarray] = {}     # read-only, m <= _KEPT_UPSETS
_KEPT_UPSETS = 5    # 7,581 words (61 KB) on 5 points; 7,828,354 (63 MB) on 6


def _upsets(m: int) -> np.ndarray:
    """Every up-set of subsets of m points, ascending, as uint64 words.

    Half-cube decomposition: an up-set on m points is a pair f0 <= f1 of
    up-sets on m - 1 points (f0 on the masks without point m - 1, f1 on
    those with it), with word f1 << 2^(m-1) | f0: `_half_cube` over the
    up-sets on m - 1 points, each f1 its own bound. That builds the up-sets
    of every size in ascending order, written into one array of the known
    size (a Dedekind number). The first and last words are the empty family
    and the family holding the empty set. Up to 5 points the arrays are kept,
    read-only, and each is built once from the one below it.
    """
    if m in _UPSETS:
        return _UPSETS[m]
    if m == 0:
        out = np.array([0, 1], dtype=np.uint64)
    else:
        words = _upsets(m - 1)
        out, pos = np.empty(_DEDEKIND[m], dtype=np.uint64), 0
        for block in _half_cube(words, words, m - 1):
            out[pos:pos + len(block)] = block
            pos += len(block)
    if m <= _KEPT_UPSETS:
        out.setflags(write=False)
        _UPSETS[m] = out
    return out


def upset_words(n: int) -> np.ndarray:
    """Membership vectors of all hyperspaces on n points, ascending, as uint64:
    the up-sets on n points without the first and last (not hyperspaces)."""
    if not 1 <= n <= MAX_ENUM_CARRIER:
        raise InputError(
            f"full enumeration supports carrier sizes 1..{MAX_ENUM_CARRIER}, got {n}")
    return _upsets(n)[1:-1]


def enumerate_all(n: int) -> Iterator[Hyperspace]:
    """Every inclusion hyperspace on n points, in ascending canonical order."""
    for bits in upset_words(n).tolist():
        yield Hyperspace._raw(n, bits)


# -- CLI literal syntax ---------------------------------------------------------

def format_hyperspace(f: Hyperspace, names) -> str:
    """Render minimal sets in literal syntax, e.g. `<[0,1],[2]>`."""
    parts = []
    for m in f.minimal_sets():
        parts.append("[" + ",".join(names[i] for i in mask_elements(m)) + "]")
    return "<" + ",".join(parts) + ">"


@functools.lru_cache(maxsize=32)
def _set_literals(n: int, names: tuple[str, ...]) -> np.ndarray:
    """The literal `[a,b],` of every subset mask of n points, comma included,
    by mask, as a read-only object array."""
    literals = np.array(["[" + ",".join(names[i] for i in mask_elements(m)) + "],"
                         for m in range(1 << n)], dtype=object)
    literals.setflags(write=False)
    return literals


def format_words(n: int, words: np.ndarray, names) -> list[str]:
    """`format_hyperspace` of every hyperspace word on n <= 6 points.

    The minimal sets of all the words are found at once, by the shift of
    `Hyperspace.minimal_sets`; `np.nonzero` over their bit rows gives the
    (word, mask) pairs, word by word and by ascending mask. Each mask is
    one literal of a table, and each word's literals, at least one (its
    minimal sets), are joined by one `np.add.reduceat` from its first.
    """
    words = np.asarray(words, dtype=np.uint64)
    non = np.zeros_like(words)
    for i, c in enumerate(_point_words(n)):
        non |= (words << np.uint64(1 << i)) & np.uint64(c)
    row, mask = np.nonzero(_bit_rows(words & ~non))
    counts = np.bincount(row, minlength=len(words))
    joined = np.add.reduceat(_set_literals(n, tuple(names))[mask], np.cumsum(counts) - counts)
    return ["<" + s[:-1] + ">" for s in joined.tolist()]


def parse_hyperspace(text: str, n: int, names) -> Hyperspace:
    """Parse the literal syntax back into a hyperspace over the given carrier.
    Whitespace may stand around the literal, the names and the commas
    between sets."""
    s = text.strip()
    if not (s.startswith("<") and s.endswith(">")):
        raise InputError(f"hyperspace literal must look like <[..],[..]>: {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise InputError("hyperspace literal needs at least one base set")
    pos = {name: i for i, name in enumerate(names)}
    base = []

    def past_space(i: int) -> int:
        return len(body) - len(body[i:].lstrip())

    i = 0
    while i < len(body):
        at, i = i, past_space(i)        # the stripped body ends in no space
        if body[i] != "[":
            raise InputError(f"expected '[' at position {at} in {text!r}")
        j = body.find("]", i)
        if j < 0:
            raise InputError(f"unclosed '[' in {text!r}")
        mask = 0
        for tok in body[i + 1:j].split(","):
            tok = tok.strip()
            if tok not in pos:
                raise InputError(f"unknown element {tok!r} in {text!r}")
            mask |= 1 << pos[tok]
        if mask == 0:
            raise InputError(f"empty base set in {text!r}")
        base.append(mask)
        i = past_space(j + 1)
        if i < len(body):
            if body[i] != ",":
                raise InputError(f"expected ',' between sets in {text!r}")
            i += 1
            if i == len(body):
                raise InputError(f"trailing ',' in {text!r}")
    return generate(n, base)
