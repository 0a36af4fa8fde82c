"""Finite groupoids given by Cayley tables.

A groupoid is a set with one binary operation and no further axioms.
Property flags (associativity, identity, Latin-square/quasigroup) are
computed once at construction; nothing downstream assumes any of them
unless it checks the flag first.
"""

from __future__ import annotations

import hashlib
import json
import operator

from .errors import InputError

# Carrier caps. Single-hyperspace operations carry 2^n-bit membership
# vectors; full G(X) enumeration grows like the Dedekind numbers. A view's
# composition table has m^2 cells: the element cap admits all of G(5)
# (7,579 elements, 57M cells) and refuses all of G(6) (7,828,352).
MAX_CARRIER = 16
MAX_ENUM_CARRIER = 6
MAX_VIEW_ELEMENTS = 10_000

BUILTIN_NAMES = ("cyclic", "symmetric-3", "klein-4", "left-zero", "right-zero")


def _entry(v) -> int:
    """A table entry as an int: Python and numpy integers only, no float or
    string is rounded or parsed."""
    try:
        return operator.index(v)
    except TypeError:
        raise InputError(f"table entry {v!r} is not an integer") from None


class Groupoid:
    """Immutable finite groupoid: element labels plus an n x n index table,
    whose entries are Python or numpy integers in [0, n)."""

    __slots__ = ("name", "names", "table", "n", "associative", "commutative",
                 "identity", "quasigroup", "_hash")

    def __init__(self, names, table, name=""):
        names = tuple(str(x) for x in names)
        n = len(names)
        if n == 0:
            raise InputError("groupoid needs at least one element")
        if len(set(names)) != n:
            raise InputError("element names must be distinct")
        for x in names:
            if x != x.strip() or not set(x).isdisjoint("[],<>"):
                raise InputError(f"element name {x!r} cannot be read back in a literal: no "
                                 "surrounding whitespace, '[', ']', ',', '<' or '>' allowed")
        if len(table) != n or any(len(row) != n for row in table):
            raise InputError(f"table must be {n}x{n}")
        tab = tuple(tuple(_entry(v) for v in row) for row in table)
        for row in tab:
            for v in row:
                if not 0 <= v < n:
                    raise InputError(f"table entry {v} out of range [0, {n})")
        self.name = name or "groupoid"
        self.names = names
        self.table = tab
        self.n = n
        self._hash = hash(tab)      # cache key; int tuples hash alike in every process
        self.associative = all(
            tab[tab[i][j]][k] == tab[i][tab[j][k]]
            for i in range(n) for j in range(n) for k in range(n))
        self.commutative = all(
            tab[i][j] == tab[j][i] for i in range(n) for j in range(i))
        self.identity = next(
            (e for e in range(n)
             if all(tab[e][x] == x == tab[x][e] for x in range(n))), None)
        rng = set(range(n))
        self.quasigroup = (
            all(set(row) == rng for row in tab)
            and all({tab[i][j] for i in range(n)} == rng for j in range(n)))

    def center(self) -> tuple[int, ...]:
        """Indices of elements commuting with every element."""
        return tuple(i for i in range(self.n)
                     if all(self.table[i][j] == self.table[j][i]
                            for j in range(self.n)))

    def is_group(self) -> bool:
        return self.associative and self.quasigroup and self.identity is not None

    def fingerprint(self) -> str:
        blob = json.dumps([self.names, self.table]).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def __eq__(self, other):
        return (isinstance(other, Groupoid)
                and self.names == other.names and self.table == other.table)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Groupoid({self.name!r}, n={self.n})"


def _cyclic(n: int) -> Groupoid:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return Groupoid([str(i) for i in range(n)], table, f"cyclic:{n}")


def _klein_4() -> Groupoid:
    # Z2 x Z2 with xor on 2-bit indices
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return Groupoid(["e", "a", "b", "c"], table, "klein-4")


def _symmetric_3() -> Groupoid:
    # permutations of {0,1,2}; product i*j applies j first, then i
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = ["e", "(01)", "(02)", "(12)", "(012)", "(021)"]
    idx = {p: k for k, p in enumerate(perms)}
    table = [[idx[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return Groupoid(names, table, "symmetric-3")


def build_builtin(name: str, n: int) -> Groupoid:
    """Instantiate a named groupoid family at carrier size n."""
    if n < 1:
        raise InputError(f"carrier size must be positive, got {n}")
    if n > MAX_CARRIER:
        raise InputError(f"carrier size {n} exceeds the cap {MAX_CARRIER}")
    if name == "cyclic":
        return _cyclic(n)
    if name == "left-zero":
        table = [[i] * n for i in range(n)]
        return Groupoid([str(i) for i in range(n)], table, f"left-zero:{n}")
    if name == "right-zero":
        table = [list(range(n)) for _ in range(n)]
        return Groupoid([str(i) for i in range(n)], table, f"right-zero:{n}")
    if name == "klein-4":
        if n != 4:
            raise InputError("klein-4 requires n = 4")
        return _klein_4()
    if name == "symmetric-3":
        if n != 6:
            raise InputError("symmetric-3 has 6 elements; pass n = 6")
        return _symmetric_3()
    raise InputError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


def parse_groupoid(document: str) -> Groupoid:
    """Parse a Cayley-table document (YAML or JSON).

    Expected fields: `name` (optional string), `elements` (distinct strings),
    `table` (list of rows of element names, row-major: table[i][j] = i * j).
    """
    import yaml     # only `file:` carriers need it: about 20 ms of `import gspace`
    try:
        data = yaml.safe_load(document)
    except yaml.YAMLError as exc:
        raise InputError(f"malformed groupoid document: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("groupoid document must be a mapping")
    try:
        elements = data["elements"]
        rows = data["table"]
    except KeyError as exc:
        raise InputError(f"groupoid document missing field {exc}") from None
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputError("`elements` must be a list of strings")
    if len(elements) > MAX_CARRIER:
        raise InputError(f"carrier size {len(elements)} exceeds the cap {MAX_CARRIER}")
    pos = {e: i for i, e in enumerate(elements)}
    if not isinstance(rows, list) or len(rows) != len(elements):
        raise InputError("`table` must be square")
    table = []
    for row in rows:
        if not isinstance(row, list) or len(row) != len(elements):
            raise InputError("`table` must be square")
        try:
            table.append([pos[v] for v in row])
        except (KeyError, TypeError):
            raise InputError(f"table entry not a declared element name: {row!r}") from None
    return Groupoid(elements, table, str(data.get("name", "") or "groupoid"))


def groupoid_properties(g: Groupoid) -> dict:
    """Property report: flags, identity, and the center of the groupoid."""
    return {
        "name": g.name,
        "n": g.n,
        "associative": g.associative,
        "commutative": g.commutative,
        "quasigroup": g.quasigroup,
        "identity": None if g.identity is None else g.names[g.identity],
        "center": [g.names[i] for i in g.center()],
    }


def is_homomorphism(g1: Groupoid, g2: Groupoid, mapping) -> bool:
    """True iff mapping preserves the operation: h(x*y) = h(x)*h(y)."""
    mapping = list(mapping)
    if len(mapping) != g1.n:
        raise InputError(f"map must have length {g1.n}")
    if any(not 0 <= v < g2.n for v in mapping):
        raise InputError(f"map entries must lie in [0, {g2.n})")
    return all(
        mapping[g1.table[x][y]] == g2.table[mapping[x]][mapping[y]]
        for x in range(g1.n) for y in range(g1.n))
