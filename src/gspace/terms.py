"""Lattice-term rendering of hyperspaces over tiny carriers.

Every hyperspace on up to 3 points is a meet/join term in the principal
hyperspaces; text reports use these terms (with the carrier's own element
names) instead of minimal-set literals because that is how small censuses
are usually written down.
"""

from __future__ import annotations

import functools
import operator

from .hyperspaces import Hyperspace, _point_words

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


def _eval_term(term, n: int) -> int:
    """The word of a term: a point's principal word, or the AND (meet) or OR
    (join) of its arguments' words."""
    if isinstance(term, int):
        return _point_words(n)[term]
    op, *args = term
    return functools.reduce(operator.and_ if op == "&" else operator.or_,
                            (_eval_term(a, n) for a in args))


def _render(term, names, parent: str | None = None) -> str:
    if isinstance(term, int):
        return names[term]
    op, *args = term
    sym = "∧" if op == "&" else "∨"
    body = sym.join(_render(a, names, op) for a in args)
    if parent is not None and parent != op:
        return f"({body})"
    return body


@functools.lru_cache(maxsize=32)
def term_labels(n: int, names: tuple[str, ...]) -> dict[int, str]:
    """The meet/join term of every hyperspace word on n <= 3 points, in the
    given element names, keyed by word; empty for n > 3."""
    return {_eval_term(t, n): _render(t, names) for t in _TERM_TABLES.get(n, ())}


def term_string(f: Hyperspace, names) -> str | None:
    """The meet/join term for f in the given element names, or None for n > 3."""
    return term_labels(f.n, tuple(names)).get(f.bits)
