"""Command-line front end.

One verb per analysis: `enumerate`, `classify`, `product`, `table`,
`analyze`, `orbits`, `sections`, plus `verify-paper` which replays the
published small-group computations end to end. Exit codes: 0 success,
1 failed verification, 2 input error, 3 search budget exceeded.

Every verb writes through one `_emit` call, rendering only the format asked for;
tables go row by row from numpy (λ(Z6) json on 2 vCPUs: 0.8–1.0 s, 51 MB peak RSS).
Labels are rendered from the verbs' word arrays (`format_words`): one
minimal-set pass over all the words, then one literal per subset mask.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import verify as verify_mod
from .classify import classify as classify_fn
from .classify import class_words, parse_class_token
from .errors import BudgetExceeded, InputError
from .groupoids import (MAX_VIEW_ELEMENTS, Groupoid, build_builtin, groupoid_properties,
                        parse_groupoid)
from .hyperspaces import format_hyperspace, format_words, parse_hyperspace
from .products import product, product_via_base
from .structure import (SECTION_BUDGET, center, find_sections, minimal_ideal,
                        minimal_left_ideals, minimal_right_ideals, orbits,
                        special_elements, subsemigroup_view)
from .terms import term_labels, term_string

EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3


def _load_groupoid(spec: str | None) -> Groupoid:
    if not spec:
        raise InputError("this command needs --groupoid <builtin:n | file:PATH>")
    kind, _, arg = spec.partition(":")
    if kind == "file":
        path = Path(arg)
        if not path.exists():
            raise InputError(f"groupoid file not found: {arg}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read groupoid file {arg}: {exc}") from None
        return parse_groupoid(text)
    if not arg:
        defaults = {"klein-4": 4, "symmetric-3": 6}
        if kind in defaults:
            return build_builtin(kind, defaults[kind])
        raise InputError(f"builtin groupoid needs a size, e.g. {kind}:3")
    try:
        n = int(arg)
    except ValueError:
        raise InputError(f"bad groupoid size in {spec!r}") from None
    return build_builtin(kind, n)


def _show(g: Groupoid, f) -> str:
    term = term_string(f, g.names)
    return term if term is not None else format_hyperspace(f, g.names)


def _labels(g: Groupoid, words: np.ndarray, literals: list[str]) -> list[str]:
    """`_show` of each word: its term (n <= 3), else its literal from `literals`."""
    terms = term_labels(g.n, g.names)
    return [terms.get(w, lit) for w, lit in zip(words.tolist(), literals)] if terms else literals


def _labeler(g: Groupoid, words: np.ndarray):
    """A function sending element indices to their labels, rendered in one call."""
    def labels(indices) -> list[str]:
        picked = words[np.asarray(indices, dtype=np.intp)]
        return _labels(g, picked, format_words(g.n, picked, g.names))
    return labels


def _grouped(labels, groups) -> list[list[str]]:
    """The labels of each group of element indices, rendered in one call."""
    flat = iter(labels([i for group in groups for i in group]))
    return [list(itertools.islice(flat, len(group))) for group in groups]


def _escape(g: Groupoid, view) -> dict:
    """The first escape of a view that is not closed: its factors' labels and product."""
    i, j, p = view.escape
    left, right = _labeler(g, view.words)([i, j])
    return {"left": left, "right": right, "product": _show(g, p)}


def _json_chunks(obj, level=0):
    """`json.dumps(obj, indent=2, sort_keys=True)` in pieces, nested `level` deep.
    Str-keyed dicts are walked, and a view table in one is written row by row."""
    pad = "\n" + "  " * level
    if isinstance(obj, np.ndarray):     # entries in [-1, m): num[-1] is "-1"
        num, cell = [*map(str, range(len(obj))), "-1"], "," + pad + "    "
        for i, row in enumerate(obj):
            yield (("," if i else "[") + pad + "  [" + pad + "    "
                   + cell.join(map(num.__getitem__, row.tolist())) + pad + "  ]")
        yield pad + "]" if len(obj) else "[]"
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + pad + "  " + json.dumps(key) + ": "
            yield from _json_chunks(obj[key], level + 1)
        yield pad + "}"
    else:
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)


def _emit(ctx, payload: dict, lines, verdicts: dict | None = None) -> None:
    """Write a verb's output, the JSON report (timed before rendering) or else its
    `lines`, read lazily and written piece by piece to the buffered stdout."""
    if ctx.obj["format"] == "json":
        g = ctx.obj["groupoid_loaded"]
        report = {
            "command": ctx.obj["command_echo"],
            "fingerprint": None if g is None else {
                "groupoid": g.name, "table_sha": g.fingerprint()},
            "payload": payload,
            "verdicts": verdicts or {},
            "timing_ms": round((time.perf_counter() - ctx.obj["t0"]) * 1000, 3),
        }
        pieces = itertools.chain(_json_chunks(report), ["\n"])
    else:
        pieces = (line + "\n" for line in lines)
    sys.stdout.writelines(pieces)


@click.group()
@click.option("--groupoid", "gspec", default=None, metavar="SPEC",
              help="builtin:n (cyclic, klein-4, symmetric-3, left-zero, "
                   "right-zero) or file:PATH")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text", "dot"]),
              default="text", show_default=True)
@click.option("--budget", type=click.IntRange(min=0), default=SECTION_BUDGET,
              show_default=True, help="node budget for exhaustive searches")
@click.pass_context
def cli(ctx, gspec, fmt, budget):
    """Inclusion-hyperspace semigroups over finite groupoids."""
    ctx.ensure_object(dict).setdefault("command_echo", "gspace")
    ctx.obj.update(gspec=gspec, format=fmt, budget=budget,
                   t0=time.perf_counter(), groupoid_loaded=None)


def _check_format(ctx) -> None:
    """Refuse csv and dot outside `table`, after a verb's --help, before any work."""
    fmt = ctx.obj["format"]
    if fmt in ("csv", "dot") and ctx.info_name != "table":
        raise InputError(f"--format {fmt} is only supported by `table`")


def _groupoid(ctx) -> Groupoid:
    _check_format(ctx)
    g = _load_groupoid(ctx.obj["gspec"])
    ctx.obj["groupoid_loaded"] = g
    return g


@cli.command("enumerate")
@click.option("--class", "class_spec", default="all", show_default=True,
              metavar="TOKEN",
              help="all|filters|ultrafilters|linked:k|centered|maxlinked:k|shiftinv")
@click.option("--count-only", is_flag=True)
@click.pass_context
def enumerate_cmd(ctx, class_spec, count_only):
    """List (or count) the members of a class of hyperspaces."""
    g = _groupoid(ctx)
    words = class_words(g, *parse_class_token(class_spec))
    if count_only:
        _emit(ctx, {"class": class_spec, "count": len(words)}, [str(len(words))])
        return
    if len(words) > MAX_VIEW_ELEMENTS:
        raise InputError(f"listing {len(words)} families exceeds the cap of "
                         f"{MAX_VIEW_ELEMENTS}; use --count-only")
    literals = format_words(g.n, words, g.names)
    payload = {"class": class_spec, "count": len(words), "elements": literals}
    _emit(ctx, payload, (f"{i}: {lab}" for i, lab in enumerate(_labels(g, words, literals))))


@cli.command("classify")
@click.argument("literal")
@click.pass_context
def classify_cmd(ctx, literal):
    """Classify one hyperspace given in literal syntax, e.g. '<[0,1],[2]>'."""
    g = _groupoid(ctx)
    f = parse_hyperspace(literal, g.n, g.names)
    flags = classify_fn(f, g)
    payload = {
        "hyperspace": format_hyperspace(f, g.names),
        "linked_up_to": flags.linked_up_to,
        "centered": flags.centered,
        "filter": flags.filter,
        "ultrafilter": flags.ultrafilter,
        "maximal_k_linked": {str(k): v for k, v in flags.maximal_k_linked.items()},
        "self_transversal": flags.self_transversal,
        "shift_invariant": flags.shift_invariant,
    }
    _emit(ctx, payload, [_show(g, f), *(f"  {k}: {v}" for k, v in payload.items()
                                        if k != "hyperspace")])


@cli.command("product")
@click.argument("left")
@click.argument("right")
@click.option("--oracle/--no-oracle", default=False,
              help="also run the base-form oracle and compare")
@click.pass_context
def product_cmd(ctx, left, right, oracle):
    """Extended product of two hyperspaces given in literal syntax."""
    g = _groupoid(ctx)
    u = parse_hyperspace(left, g.n, g.names)
    v = parse_hyperspace(right, g.n, g.names)
    w = product(g, u, v)
    payload = {
        "left": format_hyperspace(u, g.names),
        "right": format_hyperspace(v, g.names),
        "result": format_hyperspace(w, g.names),
    }
    verdicts = {}
    lines = [f"{_show(g, u)} o {_show(g, v)} = {_show(g, w)}"]
    if oracle:
        w2 = product_via_base(g, u, v, budget=ctx.obj["budget"])
        verdicts["oracle_agrees"] = (w == w2)
        lines.append(f"base-form oracle agrees: {w == w2}")
        if w != w2:
            payload["oracle_result"] = format_hyperspace(w2, g.names)
    _emit(ctx, payload, lines, verdicts)
    if oracle and not verdicts["oracle_agrees"]:
        sys.exit(EXIT_VERIFICATION_FAILED)


@cli.command("table")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def table_cmd(ctx, within):
    """Composition table of a class, as text, csv, json, or dot."""
    g = _groupoid(ctx)
    view = subsemigroup_view(g, class_words(g, *parse_class_token(within)))
    labels = _labeler(g, view.words)(range(view.size))
    payload = {"within": within, "closed": view.closed, "labels": labels, "table": view.table}
    if not view.closed:
        payload["first_escape"] = _escape(g, view)
    _emit(ctx, payload, _table_lines(ctx.obj["format"], view, labels))


def _table_lines(fmt, view, labels):
    """The csv, dot or text rendering of a view's table, one row at a time."""
    num = [*map(str, range(view.size)), "-1"]       # num[x] for every entry x
    if fmt == "csv":
        yield "# legend: " + "; ".join(f"{i}={lab}" for i, lab in enumerate(labels))
        yield "," + ",".join(num[:-1])
        yield from (f"{i}," + ",".join(map(num.__getitem__, row.tolist()))
                    for i, row in enumerate(view.table))
    elif fmt == "dot":
        yield "digraph product {"
        for i, lab in enumerate(labels):
            yield '  n%d [label="%s"];' % (i, lab.replace("\\", "\\\\").replace('"', '\\"'))
        prods = np.array(num[:-1], dtype=object)
        tails = np.array([f' [label="o {j}"];' for j in range(view.size)], dtype=object)
        for i, row in zip(num, view.table):
            cols = np.flatnonzero(row >= 0)
            if len(cols):                   # a row of escapes draws no edge
                edges = (prods[row[cols]] + tails[cols]).tolist()
                yield f"  n{i} -> n" + f"\n  n{i} -> n".join(edges)
        yield "}"
    else:
        yield f"closed: {view.closed}"
        cells = [x.rjust(max(len(str(view.size - 1)), 2)) for x in num]
        yield "     " + " ".join(cells[:-1])
        yield from (f"{i:>4} " + " ".join(map(cells.__getitem__, row.tolist()))
                    for i, row in enumerate(view.table))
        yield from (f"{i} = {lab}" for i, lab in enumerate(labels))


@cli.command("analyze")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def analyze_cmd(ctx, within):
    """Special elements, ideals, and the center of a class."""
    g = _groupoid(ctx)
    view = subsemigroup_view(g, class_words(g, *parse_class_token(within)))
    if not view.closed:
        raise InputError(f"class {within!r} is not product-closed: "
                         "{left} o {right} = {product}".format(**_escape(g, view)))
    spec = special_elements(view)
    labels = _labeler(g, view.words)
    payload = {
        "within": within,
        "size": view.size,
        "groupoid": groupoid_properties(g),
        "idempotents": labels(spec.idempotents),
        "left_zeros": labels(spec.left_zeros),
        "right_zeros": labels(spec.right_zeros),
        "zeros": labels(spec.zeros),
        "identity": None if spec.identity is None else labels([spec.identity])[0],
        "left_cancelable": labels(spec.left_cancelable),
        "right_cancelable": labels(spec.right_cancelable),
        "center": labels(center(view)),
    }
    if view.is_associative():
        payload["minimal_ideal"] = labels(minimal_ideal(view))
    else:
        payload["associative"] = False
        payload["minimal_left_ideals"] = [labels(ideal) for ideal in minimal_left_ideals(view)]
        payload["minimal_right_ideals"] = [labels(ideal) for ideal in minimal_right_ideals(view)]
    if within == "all":     # the right zeros of G(X) are its shift-invariant core
        payload["shift_invariant_core"] = payload["right_zeros"]
    _emit(ctx, payload, (f"{k}: {v}" for k, v in payload.items() if k != "groupoid"))


@cli.command("orbits")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def orbits_cmd(ctx, within):
    """Right-action orbit partition and the quotient table."""
    g = _groupoid(ctx)
    dec = orbits(g, class_words(g, *parse_class_token(within)))
    labels = _grouped(_labeler(g, dec.view.words), dec.orbits)
    payload = {
        "within": within,
        "orbit_count": len(dec.orbits),
        "orbits": labels,
        "quotient_table": dec.quotient.table,
    }

    def lines():
        yield f"{len(dec.orbits)} orbits"
        yield from (f"  orbit {k}: " + ", ".join(orb) for k, orb in enumerate(labels))
        yield "quotient table rows: " + "; ".join(
            " ".join(map(str, row.tolist())) for row in dec.quotient.table)
    _emit(ctx, payload, lines())


@cli.command("sections")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def sections_cmd(ctx, within):
    """Product-closed transversals of the orbit partition (splittability)."""
    g = _groupoid(ctx)
    search = find_sections(g, class_words(g, *parse_class_token(within)),
                           budget=ctx.obj["budget"])
    sections = _grouped(_labeler(g, search.decomposition.view.words), search.sections)
    payload = {
        "within": within,
        "orbit_count": len(search.decomposition.orbits),
        "section_count": len(search.sections),
        "sections": sections,
        "nodes": search.nodes,
    }
    lines = [f"{len(search.sections)} transversal semigroup(s) ({search.nodes} search nodes)"]
    lines += [f"  section {k}: " + ", ".join(sec) for k, sec in enumerate(sections)]
    _emit(ctx, payload, lines)


@cli.command("verify-paper")
@click.pass_context
def verify_cmd(ctx):
    """Replay the published small-group computations; nonzero exit on mismatch."""
    _check_format(ctx)
    results = verify_mod.run_all()
    payload = {
        "checks": [dataclasses.asdict(r) for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
        if not r.passed:
            lines += [f"       expected: {r.expected}", f"       computed: {r.computed}"]
        lines += [f"       {d}" for d in r.details]
    lines.append(f"{payload['passed']} passed, {payload['failed']} failed")
    _emit(ctx, payload, lines)
    if payload["failed"]:
        sys.exit(EXIT_VERIFICATION_FAILED)


def _hoist_globals(argv):
    """Allow the global flags to appear after the subcommand as well."""
    hoisted, rest = [], []
    args = iter(argv)
    for arg in args:
        if arg.split("=", 1)[0] in ("--groupoid", "--format", "--budget"):
            hoisted += [arg] if "=" in arg else [arg, *itertools.islice(args, 1)]
        else:
            rest.append(arg)
    return hoisted + rest


def main(argv=None):
    """Run the CLI on argv (default sys.argv[1:]), echoed in reports as given."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cli.main(args=_hoist_globals(argv), standalone_mode=False,
                 obj={"command_echo": " ".join(["gspace", *argv])})
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_INPUT_ERROR)
    except click.exceptions.Abort:
        sys.exit(EXIT_INPUT_ERROR)
    except BudgetExceeded as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(EXIT_BUDGET_EXCEEDED)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)


if __name__ == "__main__":
    main()
