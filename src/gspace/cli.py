"""Command-line front end.

One verb per analysis: `enumerate`, `classify`, `product`, `table`,
`analyze`, `orbits`, `sections`, plus `verify-paper` which replays the
published small-group computations end to end. Exit codes: 0 success,
1 failed verification, 2 input error, 3 search budget exceeded.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from . import verify as verify_mod
from .classify import classify as classify_fn
from .classify import class_words, enumerate_class, parse_class_token
from .errors import BudgetExceeded, InputError
from .groupoids import (MAX_VIEW_ELEMENTS, Groupoid, build_builtin, groupoid_properties,
                        parse_groupoid)
from .hyperspaces import Hyperspace, format_hyperspace, parse_hyperspace
from .products import product, product_via_base
from .structure import (SECTION_BUDGET, center, find_sections, minimal_ideal,
                        minimal_left_ideals, minimal_right_ideals, orbits,
                        special_elements, subsemigroup_view)
from .terms import term_string

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


def _report(ctx, payload: dict, verdicts: dict | None = None) -> dict:
    g = ctx.obj.get("groupoid_loaded")
    return {
        "command": ctx.obj["command_echo"],
        "fingerprint": None if g is None else {
            "groupoid": g.name, "table_sha": g.fingerprint()},
        "payload": payload,
        "verdicts": verdicts or {},
        "timing_ms": round((time.perf_counter() - ctx.obj["t0"]) * 1000, 3),
    }


def _emit(ctx, report: dict, text_lines) -> None:
    fmt = ctx.obj["format"]
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines:
            click.echo(line)


@click.group()
@click.option("--groupoid", "gspec", default=None, metavar="SPEC",
              help="builtin:n (cyclic, klein-4, symmetric-3, left-zero, "
                   "right-zero) or file:PATH")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text", "dot"]),
              default="text", show_default=True)
@click.option("--budget", type=int, default=SECTION_BUDGET, show_default=True,
              help="node budget for exhaustive searches")
@click.pass_context
def cli(ctx, gspec, fmt, budget):
    """Inclusion-hyperspace semigroups over finite groupoids."""
    ctx.ensure_object(dict).setdefault("command_echo", "gspace")
    ctx.obj.update(gspec=gspec, format=fmt, budget=budget,
                   t0=time.perf_counter(), groupoid_loaded=None)


def _check_format(ctx) -> None:
    """Refuse csv and dot outside `table`, first thing in a verb's body
    (after its own --help, before any work)."""
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
        _emit(ctx, _report(ctx, {"class": class_spec, "count": len(words)}),
              [str(len(words))])
        return
    if len(words) > MAX_VIEW_ELEMENTS:
        raise InputError(f"listing {len(words)} families exceeds the cap of "
                         f"{MAX_VIEW_ELEMENTS}; use --count-only")
    elems = [Hyperspace._raw(g.n, b) for b in words.tolist()]
    payload = {"class": class_spec, "count": len(elems),
               "elements": [format_hyperspace(f, g.names) for f in elems]}
    _emit(ctx, _report(ctx, payload), [f"{i}: {_show(g, f)}" for i, f in enumerate(elems)])


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
    lines = [f"{_show(g, f)}"] + [f"  {k}: {v}" for k, v in payload.items()
                                  if k != "hyperspace"]
    _emit(ctx, _report(ctx, payload), lines)


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
    if oracle:
        w2 = product_via_base(g, u, v, budget=ctx.obj["budget"])
        verdicts["oracle_agrees"] = (w == w2)
        if w != w2:
            payload["oracle_result"] = format_hyperspace(w2, g.names)
    lines = [f"{_show(g, u)} o {_show(g, v)} = {_show(g, w)}"]
    if oracle:
        lines.append(f"base-form oracle agrees: {verdicts['oracle_agrees']}")
    report = _report(ctx, payload, verdicts)
    _emit(ctx, report, lines)
    if oracle and not verdicts["oracle_agrees"]:
        sys.exit(EXIT_VERIFICATION_FAILED)


@cli.command("table")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def table_cmd(ctx, within):
    """Composition table of a class, as text, csv, json, or dot."""
    g = _groupoid(ctx)
    view = subsemigroup_view(g, class_words(g, *parse_class_token(within)))
    labels = [_show(g, f) for f in view.elements]
    rows = view.table.tolist()
    payload = {
        "within": within,
        "closed": view.closed,
        "labels": labels,
        "table": rows,
    }
    if not view.closed:
        i, j, p = view.escape
        payload["first_escape"] = {
            "left": labels[i], "right": labels[j], "product": _show(g, p)}
    fmt = ctx.obj["format"]
    if fmt == "csv":
        lines = ["# legend: " + "; ".join(f"{i}={lab}" for i, lab in enumerate(labels))]
        lines.append("," + ",".join(str(j) for j in range(view.size)))
        for i, row in enumerate(rows):
            lines.append(f"{i}," + ",".join(str(x) for x in row))
        click.echo("\n".join(lines))
        return
    if fmt == "dot":
        lines = ["digraph product {"]
        for i, lab in enumerate(labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for i, row in enumerate(rows):
            for j, k in enumerate(row):
                if k >= 0:
                    lines.append(f'  n{i} -> n{k} [label="o {j}"];')
        lines.append("}")
        click.echo("\n".join(lines))
        return
    text = [f"closed: {view.closed}"]
    width = max(len(str(view.size - 1)), 2)
    text.append("     " + " ".join(f"{j:>{width}}" for j in range(view.size)))
    for i, row in enumerate(rows):
        text.append(f"{i:>4} " + " ".join(f"{x:>{width}}" for x in row))
    text.extend(f"{i} = {lab}" for i, lab in enumerate(labels))
    _emit(ctx, _report(ctx, payload), text)


@cli.command("analyze")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def analyze_cmd(ctx, within):
    """Special elements, ideals, and the center of a class."""
    g = _groupoid(ctx)
    view = subsemigroup_view(g, class_words(g, *parse_class_token(within)))
    if not view.closed:
        i, j, p = view.escape
        raise InputError(
            f"class {within!r} is not product-closed: "
            f"{view.label(i)} o {view.label(j)} escapes")
    spec = special_elements(view)
    cen = center(view)
    labels = [_show(g, f) for f in view.elements]
    payload = {
        "within": within,
        "size": view.size,
        "groupoid": groupoid_properties(g),
        "idempotents": [labels[i] for i in spec.idempotents],
        "left_zeros": [labels[i] for i in spec.left_zeros],
        "right_zeros": [labels[i] for i in spec.right_zeros],
        "zeros": [labels[i] for i in spec.zeros],
        "identity": None if spec.identity is None else labels[spec.identity],
        "left_cancelable": [labels[i] for i in spec.left_cancelable],
        "right_cancelable": [labels[i] for i in spec.right_cancelable],
        "center": [labels[i] for i in cen],
    }
    if view.is_associative():
        payload["minimal_ideal"] = [labels[i] for i in minimal_ideal(view)]
    else:
        payload["associative"] = False
        payload["minimal_left_ideals"] = [
            [labels[i] for i in ideal] for ideal in minimal_left_ideals(view)]
        payload["minimal_right_ideals"] = [
            [labels[i] for i in ideal] for ideal in minimal_right_ideals(view)]
    if within == "all":
        core = enumerate_class(g, "shiftinv")
        payload["shift_invariant_core"] = [_show(g, f) for f in core]
    lines = [f"{k}: {v}" for k, v in payload.items() if k != "groupoid"]
    _emit(ctx, _report(ctx, payload), lines)


@cli.command("orbits")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def orbits_cmd(ctx, within):
    """Right-action orbit partition and the quotient table."""
    g = _groupoid(ctx)
    dec = orbits(g, class_words(g, *parse_class_token(within)))
    labels = [_show(g, f) for f in dec.view.elements]
    payload = {
        "within": within,
        "orbit_count": len(dec.orbits),
        "orbits": [[labels[i] for i in orb] for orb in dec.orbits],
        "quotient_table": dec.quotient.table.tolist(),
    }
    lines = [f"{len(dec.orbits)} orbits"]
    for k, orb in enumerate(dec.orbits):
        lines.append(f"  orbit {k}: " + ", ".join(labels[i] for i in orb))
    lines.append("quotient table rows: " +
                 "; ".join(" ".join(map(str, r)) for r in payload["quotient_table"]))
    _emit(ctx, _report(ctx, payload), lines)


@cli.command("sections")
@click.option("--within", default="all", show_default=True, metavar="TOKEN")
@click.pass_context
def sections_cmd(ctx, within):
    """Product-closed transversals of the orbit partition (splittability)."""
    g = _groupoid(ctx)
    search = find_sections(g, class_words(g, *parse_class_token(within)),
                           budget=ctx.obj["budget"])
    words = search.decomposition.view.words
    labels = {i: _show(g, Hyperspace._raw(g.n, int(words[i])))
              for sec in search.sections for i in sec}
    payload = {
        "within": within,
        "orbit_count": len(search.decomposition.orbits),
        "section_count": len(search.sections),
        "sections": [[labels[i] for i in sec] for sec in search.sections],
        "nodes": search.nodes,
    }
    lines = [f"{len(search.sections)} transversal semigroup(s) "
             f"({search.nodes} search nodes)"]
    for k, sec in enumerate(search.sections):
        lines.append(f"  section {k}: " + ", ".join(labels[i] for i in sec))
    _emit(ctx, _report(ctx, payload), lines)


@cli.command("verify-paper")
@click.pass_context
def verify_cmd(ctx):
    """Replay the published small-group computations; nonzero exit on mismatch."""
    _check_format(ctx)
    results = verify_mod.run_all()
    payload = {
        "checks": [
            {"name": r.name, "passed": r.passed, "expected": r.expected,
             "computed": r.computed, "details": r.details}
            for r in results
        ],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
        if not r.passed:
            lines.append(f"       expected: {r.expected}")
            lines.append(f"       computed: {r.computed}")
        for d in r.details:
            lines.append(f"       {d}")
    lines.append(f"{payload['passed']} passed, {payload['failed']} failed")
    _emit(ctx, _report(ctx, payload), lines)
    if payload["failed"]:
        sys.exit(EXIT_VERIFICATION_FAILED)


_GLOBAL_FLAGS = ("--groupoid", "--format", "--budget")


def _hoist_globals(argv):
    """Allow the global flags to appear after the subcommand as well."""
    hoisted, rest = [], []
    i = 0
    while i < len(argv):
        arg = argv[i]
        name = arg.split("=", 1)[0]
        if name in _GLOBAL_FLAGS:
            hoisted.append(arg)
            if "=" not in arg and i + 1 < len(argv):
                hoisted.append(argv[i + 1])
                i += 1
        else:
            rest.append(arg)
        i += 1
    return hoisted + rest


def main(argv=None):
    """Run the CLI on argv (default sys.argv[1:]), echoed in reports as given."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cli.main(args=_hoist_globals(argv), standalone_mode=False,
                 obj={"command_echo": " ".join(["gspace", *argv])})
    except SystemExit:
        raise
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
