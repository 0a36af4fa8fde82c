"""Lattice-term rendering of hyperspaces over tiny carriers.

Every hyperspace on up to 3 points is a meet/join term in the principal
hyperspaces; text reports use these terms (with the carrier's own element
names) instead of minimal-set literals because that is how small censuses
are usually written down.
"""

from __future__ import annotations

import functools

from .hyperspaces import Hyperspace, principal

# term syntax: int = principal of that element, ("&", t1, t2, ...) = meet,
# ("|", t1, t2, ...) = join; chains render flat, mixed nesting parenthesized
_TERMS_1 = (0,)

_TERMS_2 = (
    ("&", 0, 1),
    0,
    1,
    ("|", 0, 1),
)

_TERMS_3 = (
    ("&", 0, 1, 2),
    ("&", 0, 1), ("&", 1, 2), ("&", 0, 2),
    ("&", 0, ("|", 1, 2)), ("&", 1, ("|", 0, 2)), ("&", 2, ("|", 0, 1)),
    ("&", ("|", 0, 1), ("|", 0, 2), ("|", 1, 2)),
    0, 1, 2,
    ("|", 0, ("&", 1, 2)), ("|", 1, ("&", 0, 2)), ("|", 2, ("&", 0, 1)),
    ("|", 0, 1), ("|", 1, 2), ("|", 0, 2),
    ("|", 0, 1, 2),
)

_TERM_TABLES = {1: _TERMS_1, 2: _TERMS_2, 3: _TERMS_3}


def _eval_term(term, n: int) -> Hyperspace:
    if isinstance(term, int):
        return principal(n, term)
    op, *args = term
    acc = _eval_term(args[0], n)
    for a in args[1:]:
        acc = (acc & _eval_term(a, n)) if op == "&" else (acc | _eval_term(a, n))
    return acc


def _render(term, names, parent: str | None = None) -> str:
    if isinstance(term, int):
        return names[term]
    op, *args = term
    sym = "∧" if op == "&" else "∨"
    body = sym.join(_render(a, names, op) for a in args)
    if parent is not None and parent != op:
        return f"({body})"
    return body


@functools.lru_cache(maxsize=8)
def _term_bits(n: int) -> dict[int, object]:
    return {_eval_term(t, n).bits: t for t in _TERM_TABLES[n]}


def term_string(f: Hyperspace, names) -> str | None:
    """The meet/join term for f in the given element names, or None for n > 3."""
    if f.n not in _TERM_TABLES:
        return None
    term = _term_bits(f.n).get(f.bits)
    if term is None:
        return None
    return _render(term, tuple(names))

