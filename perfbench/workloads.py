"""The three benchmark workloads: their operations, seeded inputs and checks.

Every operation is one call (or one tight loop of calls) into gspace's
public functions or into `gspace.cli.main`. An operation's output is checked
after its timed call returns, against the digests pinned in `expected.json`
and against cross-checks written here independently of the package. Only
API that ROADMAP.md keeps is driven: no `--parallel`, `enumeration_shards`,
`census_count`, `full_view`, lattice/`transversal`/`minimal_sets`/`support`
wrapper functions, `Groupoid.mul`, and no direct `_batch` call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import gspace.cli
from gspace import (are_isomorphic, build_builtin, center, classify,
                    enumerate_all, enumerate_class, format_hyperspace,
                    generate, maximal_linked_families, minimal_left_ideals,
                    minimal_right_ideals, product, product_via_base,
                    special_elements, subsemigroup_view)
from gspace import verify as verify_mod

# Untraced handles for the output checks: the tracer rebinds module-level
# names, and checks must not count as work done by the layers.
REF = SimpleNamespace(product=product, product_via_base=product_via_base)

# Groupoids each workload builds during set-up.
GROUPOIDS = {
    "lambda-z6": ("cyclic:6",),
    "paper-small": ("cyclic:4", "klein-4:4", "cyclic:5"),
    "families": ("cyclic:5", "left-zero:5", "cyclic:8", "cyclic:10", "cyclic:12"),
}

M5 = 7581              # Dedekind number M(5); |G(X)| = M(n) - 2
CELL_SAMPLES = 48      # sampled table cells recomputed per view check
ORACLE_SELECTORS = 20_000   # product_via_base used only below this count
RANDOM_PER_N = {8: 160, 10: 60, 12: 24}   # seeded families per carrier size
VIA_BASE_PAIRS = 400   # seeded n = 5 pairs run through both product forms
KNOWN_MISMATCH = {"name": "z3-transversal-count", "published": 9, "computed": 3}


def build_groupoids(workload: str) -> dict:
    out = {}
    for spec in GROUPOIDS[workload]:
        kind, _, n = spec.partition(":")
        out[spec] = build_builtin(kind, int(n))
    return out


@dataclass
class Op:
    """One timed operation; `check` runs untimed and returns problems found."""
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    verb: str | None = None                 # CLI verb, for CLI operations
    release: Callable[[], Any] | None = None    # frees shared inputs after the check


# -- digests and helpers ------------------------------------------------------

def sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def table_sha(table) -> str:
    """SHA-256 of the table as little-endian int32 rows (tuple or array)."""
    h = hashlib.sha256()
    for row in table:
        h.update(np.asarray(row, dtype="<i4").tobytes())
    return h.hexdigest()


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run `gspace.cli.main` in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            gspace.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, buf.getvalue()


def cli_digest(result) -> dict:
    code, out = result
    try:
        payload = json.loads(out)["payload"]
    except (ValueError, KeyError, TypeError):
        return {"exit": code, "payload_sha256": None}
    d = {"exit": code, "payload_sha256": sha(payload)}
    for key in ("count", "nodes", "section_count", "orbit_count", "size"):
        if key in payload:
            d[key] = payload[key]
    return d


def cli_op(expect, spec: str, verb: str, *args: str) -> Op:
    """A `gspace --groupoid SPEC --format json VERB ARGS` call with a pinned payload."""
    key = " ".join(("cli", spec, verb) + args)
    argv = ["--groupoid", spec, "--format", "json", verb, *args]
    return Op(key, lambda: cli_call(argv), lambda r: expect(key, cli_digest(r)), verb=verb)


def selectors(u, v) -> int:
    m = len(v.minimal_sets())
    return sum(m ** bin(um).count("1") for um in u.minimal_sets())


def random_family(rnd: random.Random, n: int):
    """Closure of one to three random non-empty subsets (a seeded input)."""
    base = [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 3))]
    return generate(n, base)


# -- independent references (no gspace code) -----------------------------------

class RefCarrier:
    """Definitional product and families over a Cayley table, for cross-checks."""

    def __init__(self, g):
        n, nsub = g.n, 1 << g.n
        self.n = n
        self.pre = [[sum(1 << y for y in range(n) if (a >> g.table[x][y]) & 1)
                     for a in range(nsub)] for x in range(n)]
        self.principal = [sum(1 << a for a in range(nsub) if (a >> x) & 1)
                          for x in range(n)]

    def product(self, ub: int, vb: int) -> int:
        n, w = self.n, 0
        for a in range(1, 1 << n):
            s = 0
            for x in range(n):
                if (vb >> self.pre[x][a]) & 1:
                    s |= 1 << x
            if (ub >> s) & 1:
                w |= 1 << a
        return w

    def transversal(self, bits: int) -> int:
        full = (1 << self.n) - 1
        return sum(1 << e for e in range(1, full + 1) if not (bits >> (full ^ e)) & 1)

    def flag_problems(self, f, flags) -> list[str]:
        """Definitional checks of one classify() result."""
        bits, n = f.bits, self.n
        tbits = self.transversal(bits)
        members = [a for a in range(1, 1 << n) if (bits >> a) & 1]
        meet = (1 << n) - 1
        for a in members:
            meet &= a
        want = {
            "centered": any(bits & ~p == 0 for p in self.principal),
            "ultrafilter": any(bits == p for p in self.principal),
            "filter": meet != 0 and bool((bits >> meet) & 1),
            "self_transversal": bits == tbits,
            "linked2": bits & ~tbits == 0,
            "maxlinked2": bits == tbits,
        }
        got = {
            "centered": flags.centered, "ultrafilter": flags.ultrafilter,
            "filter": flags.filter, "self_transversal": flags.self_transversal,
            "linked2": flags.linked_up_to >= 2,
            "maxlinked2": bool(flags.maximal_k_linked.get(2, False)),
        }
        bad = [k for k in want if want[k] != got[k]]
        if flags.centered and flags.linked_up_to != n:
            bad.append("centered but not n-linked")
        return [f"classify {f!r}: {k}" for k in bad]


# -- shared checks ---------------------------------------------------------------

def check_cells(g, view, rnd: random.Random, ref: RefCarrier | None = None) -> list[str]:
    """Recompute sampled cells with product (and product_via_base if cheap)."""
    problems = []
    elems, t, m = view.elements, view.table, view.size
    for _ in range(CELL_SAMPLES):
        i, j = rnd.randrange(m), rnd.randrange(m)
        k = int(t[i][j])
        p = REF.product(g, elems[i], elems[j])
        if k < 0 or p.bits != elems[k].bits:
            problems.append(f"cell ({i},{j}) = {k}, product gives {p!r}")
            continue
        if ref is not None and ref.product(elems[i].bits, elems[j].bits) != p.bits:
            problems.append(f"cell ({i},{j}) disagrees with the definitional product")
        if selectors(elems[i], elems[j]) <= ORACLE_SELECTORS:
            if REF.product_via_base(g, elems[i], elems[j]).bits != p.bits:
                problems.append(f"cell ({i},{j}) disagrees with product_via_base")
    return problems


def check_automorphism(view, image) -> list[str]:
    if image is None:
        return ["no isomorphism found between a view and itself"]
    m, t = view.size, view.table
    if sorted(image) != list(range(m)):
        return ["isomorphism is not a bijection"]
    bad = sum(int(t[image[i]][image[j]]) != image[int(t[i][j])]
              for i in range(m) for j in range(m))
    return [f"isomorphism breaks {bad} cells"] if bad else []


def view_digest(view) -> dict:
    return {"size": view.size, "closed": view.closed, "table_sha256": table_sha(view.table)}


def bits_digest(families) -> dict:
    return {"count": len(families), "bits_sha256": sha([f.bits for f in families])}


# -- workloads ---------------------------------------------------------------------

def lambda_z6_ops(gs: dict, seed: int, expect) -> list[Op]:
    g = gs["cyclic:6"]
    ctx: dict = {}
    rnd = random.Random(f"{seed}:lambda-z6-cells")
    ref = RefCarrier(g)

    def view_check(v):
        return expect("view", view_digest(v)) + check_cells(g, v, rnd, ref)

    return [
        Op("maximal_linked_families",
           lambda: ctx.setdefault("lam", maximal_linked_families(6)),
           lambda r: expect("maximal_linked_families", bits_digest(r))),
        Op("subsemigroup_view",
           lambda: ctx.setdefault("view", subsemigroup_view(g, ctx["lam"])),
           view_check),
        Op("special_elements", lambda: special_elements(ctx["view"]),
           lambda r: expect("special_elements", {"sha256": sha(vars(r)),
                                                 "idempotents": len(r.idempotents)})),
        Op("center", lambda: center(ctx["view"]),
           lambda r: expect("center", {"sha256": sha(list(r)), "size": len(r)})),
        Op("minimal_left_ideals", lambda: minimal_left_ideals(ctx["view"]),
           lambda r: expect("minimal_left_ideals", {"sha256": sha(r), "count": len(r)})),
        Op("minimal_right_ideals", lambda: minimal_right_ideals(ctx["view"]),
           lambda r: expect("minimal_right_ideals", {"sha256": sha(r), "count": len(r)}),
           release=ctx.clear),
        cli_op(expect, "cyclic:6", "sections", "--within", "maxlinked:2"),
    ]


def paper_small_ops(gs: dict, seed: int, expect) -> list[Op]:
    ctx: dict = {}
    ops = []
    for chk in verify_mod.ALL_CHECKS:
        if chk.__name__ == "check_lambda_z6_left_ideals":
            continue    # the lambda-z6 workload covers lambda(Z6)

        def check(r, chk=chk):
            problems = expect(chk.__name__, {
                "name": r.name, "passed": bool(r.passed),
                "computed_sha256": sha(r.computed), "details_sha256": sha(r.details)})
            if r.name == KNOWN_MISMATCH["name"] and (
                    r.computed != KNOWN_MISMATCH["computed"]
                    or r.expected != KNOWN_MISMATCH["published"]):
                problems.append(f"G(Z3) sections: computed {r.computed}, "
                                f"expected the known mismatch 3 vs published 9")
            return problems
        ops.append(Op(f"verify.{chk.__name__}", chk, check))

    for spec in ("cyclic:4", "klein-4:4"):
        for verb in ("analyze", "orbits", "sections", "table"):
            ops.append(cli_op(expect, spec, verb))
    ops.append(cli_op(expect, "cyclic:5", "analyze", "--within", "maxlinked:2"))
    ops.append(cli_op(expect, "cyclic:5", "sections", "--within", "maxlinked:2"))

    g4, g5 = gs["cyclic:4"], gs["cyclic:5"]
    rnd = random.Random(f"{seed}:paper-small-cells")
    ref4 = RefCarrier(g4)
    ops += [
        Op("subsemigroup_view-lambda-z5",
           lambda: ctx.setdefault("v5", subsemigroup_view(g5, maximal_linked_families(5))),
           lambda v: expect("subsemigroup_view-lambda-z5", view_digest(v))),
        Op("subsemigroup_view-g-z4",
           lambda: ctx.setdefault("v4", subsemigroup_view(g4, sorted(enumerate_all(4)))),
           lambda v: expect("subsemigroup_view-g-z4", view_digest(v))
           + check_cells(g4, v, rnd, ref4)),
        Op("are_isomorphic-lambda-z5", lambda: are_isomorphic(ctx["v5"], ctx["v5"]),
           lambda r: check_automorphism(ctx["v5"], r), release=lambda: ctx.pop("v5")),
        Op("are_isomorphic-g-z4", lambda: are_isomorphic(ctx["v4"], ctx["v4"]),
           lambda r: check_automorphism(ctx["v4"], r), release=ctx.clear),
    ]
    return ops


def families_ops(gs: dict, seed: int, expect) -> list[Op]:
    g5, lz5 = gs["cyclic:5"], gs["left-zero:5"]
    ctx: dict = {}
    ref5 = RefCarrier(g5)

    def census_check(fams):
        problems = expect("enumerate_all", bits_digest(fams))
        if len(fams) != M5 - 2:
            problems.append(f"census of G(5) has {len(fams)} families, not M(5) - 2 = {M5 - 2}")
        return problems

    ops = [Op("enumerate_all", lambda: ctx.setdefault("g5", list(enumerate_all(5))),
              census_check)]
    classes = [(g5, "centered", None), (g5, "linked", 2), (g5, "linked", 3),
               (g5, "linked", 4), (g5, "maxlinked", 3), (g5, "maxlinked", 4),
               (g5, "shiftinv", None), (lz5, "shiftinv", None)]
    for g, token, k in classes:
        key = f"enumerate_class-{g.name}-{token}" + ("" if k is None else f":{k}")
        ops.append(Op(key, lambda g=g, token=token, k=k: enumerate_class(g, token, k),
                      lambda r, key=key: expect(key, bits_digest(r))))

    def classify_check(flags):
        problems = expect("classify-g5", {"sha256": sha([vars(f) for f in flags])})
        for f, fl in zip(ctx["g5"], flags):
            problems += ref5.flag_problems(f, fl)
        return problems

    def transversal_check(ts):
        problems = expect("transversal-g5", bits_digest(ts))
        for f, t in zip(ctx["g5"], ts):
            if t.bits != ref5.transversal(f.bits):
                problems.append(f"transversal of {f!r} disagrees with the definition")
        return problems

    # CLI calls sit between the library calls, so that each pass samples the
    # host's speed for the CLI at several moments.
    ops.append(cli_op(expect, "cyclic:5", "enumerate", "--class", "centered"))
    ops.append(Op("classify-g5", lambda: [classify(f, g5) for f in ctx["g5"]],
                  classify_check))
    ops.append(cli_op(expect, "cyclic:5", "enumerate", "--class", "linked:3"))
    ops.append(Op("transversal-g5", lambda: [f.transversal() for f in ctx["g5"]],
                  transversal_check, release=ctx.clear))
    ops.append(cli_op(expect, "cyclic:5", "enumerate", "--class", "shiftinv"))

    for n, count in RANDOM_PER_N.items():
        g = gs[f"cyclic:{n}"]
        rnd = random.Random(f"{seed}:families-n{n}")
        fams = [random_family(rnd, n) for _ in range(count)]
        pairs = [(fams[i], fams[(i * 7 + 3) % count]) for i in range(count)]
        ref = RefCarrier(g)

        def product_check(ws, g=g, pairs=pairs, ref=ref):
            return [f"n={g.n}: product {u!r} o {v!r} disagrees with the definition"
                    for (u, v), w in zip(pairs, ws) if w.bits != ref.product(u.bits, v.bits)]

        def classify_check_n(flags, fams=fams, ref=ref):
            return [p for f, fl in zip(fams, flags) for p in ref.flag_problems(f, fl)]

        ops.append(Op(f"product-n{n}",
                      lambda g=g, pairs=pairs: [product(g, u, v) for u, v in pairs],
                      product_check))
        ops.append(Op(f"classify-n{n}", lambda g=g, fams=fams: [classify(f, g) for f in fams],
                      classify_check_n))

    rnd = random.Random(f"{seed}:families-via-base")
    pairs5 = []
    while len(pairs5) < VIA_BASE_PAIRS:
        u, v = random_family(rnd, 5), random_family(rnd, 5)
        if selectors(u, v) <= ORACLE_SELECTORS:
            pairs5.append((u, v))

    def via_base_check(r):
        return [f"product_via_base {u!r} o {v!r} differs from product"
                for (u, v), (a, b) in zip(pairs5, r) if a != b]

    ops.append(Op("product_via_base-n5",
                  lambda: [(product(g5, u, v), product_via_base(g5, u, v)) for u, v in pairs5],
                  via_base_check))

    ops.append(cli_op(expect, "cyclic:5", "enumerate", "--class", "all", "--count-only"))

    u, v = pairs5[0]
    lit_u, lit_v = format_hyperspace(u, g5.names), format_hyperspace(v, g5.names)
    want = format_hyperspace(REF.product(g5, u, v), g5.names)

    def product_cli_check(r):
        code, out = r
        try:
            report = json.loads(out)
        except ValueError:
            return [f"product --oracle printed no JSON (exit {code})"]
        if code != 0 or not report["verdicts"].get("oracle_agrees"):
            return [f"product --oracle: exit {code}, verdicts {report['verdicts']}"]
        if report["payload"]["result"] != want:
            return [f"product --oracle gives {report['payload']['result']}, want {want}"]
        return []

    ops.append(Op("cli cyclic:5 product --oracle",
                  lambda: cli_call(["--groupoid", "cyclic:5", "--format", "json",
                                    "product", lit_u, lit_v, "--oracle"]),
                  product_cli_check, verb="product"))
    return ops


WORKLOADS = {
    "lambda-z6": lambda_z6_ops,
    "paper-small": paper_small_ops,
    "families": families_ops,
}
