"""Spans around gspace's public functions, installed from the benchmark side.

`install` wraps each named function (and the one method) in every gspace
module namespace that holds it, so calls made between modules are traced
too. Each call becomes a span (name, start, end, parent) kept in flat
in-memory arrays; counts are read from the arguments and returned objects.
A name that no longer exists in the package is reported as absent.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); "Class.method" attributes patch the class.
TARGETS = (
    ("gspace.hyperspaces", "enumerate_all", "hyperspaces.enumerate_all"),
    ("gspace.classify", "enumerate_class", "classify.enumerate_class"),
    ("gspace.classify", "maximal_linked_families", "classify.maximal_linked_families"),
    ("gspace.classify", "classify", "classify.classify"),
    ("gspace.products", "product", "products.product"),
    ("gspace.products", "product_via_base", "products.product_via_base"),
    ("gspace.products", "product_transform", "products.product_transform"),
    ("gspace._batch", "build_table", "batch.build_table"),
    ("gspace.structure", "subsemigroup_view", "structure.subsemigroup_view"),
    ("gspace.structure", "special_elements", "structure.special_elements"),
    ("gspace.structure", "center", "structure.center"),
    ("gspace.structure", "minimal_left_ideals", "structure.minimal_left_ideals"),
    ("gspace.structure", "minimal_right_ideals", "structure.minimal_right_ideals"),
    ("gspace.structure", "minimal_ideal", "structure.minimal_ideal"),
    ("gspace.structure", "SemigroupView.is_associative", "structure.is_associative"),
    ("gspace.structure", "orbits", "structure.orbits"),
    ("gspace.structure", "find_sections", "structure.find_sections"),
    ("gspace.structure", "are_isomorphic", "structure.are_isomorphic"),
)
CENSUS = ("gspace.hyperspaces", "iter_upset_bits")   # counted, not spanned
CLI_VERBS = ("enumerate", "product", "table", "analyze", "orbits", "sections")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Flat span store: one int64 array, FIELDS values per span.

    A span's id is its offset in `rec`; `parent` is the parent's id or -1
    and `child` is the time covered by its direct children.
    """

    FIELDS = ("name_id", "parent", "start", "end", "child")

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.census_items = 0

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        rec, stack = self.rec, self.stack
        idx = len(rec)
        rec.extend((nid, stack[-1] if stack else -1, 0, 0, 0))
        stack.append(idx)
        rec[idx + 2] = time.perf_counter_ns()
        return idx

    def leave(self, idx: int) -> None:
        rec, stack = self.rec, self.stack
        t = time.perf_counter_ns()
        rec[idx + 3] = t
        stack.pop()
        if stack:
            rec[stack[-1] + 4] += t - rec[idx + 2]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, pre=None, post=None):
        """A span per call; `post` reads counts from the arguments and result."""
        nid, rec, stack, clock = self.nid(name), self.rec, self.stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args) if pre else None
            idx = len(rec)      # enter() and leave(), inlined: this runs per product
            rec.extend((nid, stack[-1] if stack else -1, 0, 0, 0))
            stack.append(idx)
            rec[idx + 2] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                rec[idx + 3] = t1
                stack.pop()
                if stack:
                    rec[stack[-1] + 4] += t1 - t0
            if post:
                try:
                    post(state, args, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            return result
        return traced

    def wrap_generator(self, fn, name: str):
        """Each step of the returned iterator is its own span."""
        nid, enter, leave = self.nid(name), self.enter, self.leave
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    idx = enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    tracer.add("families", 1)
                    yield item
            return steps()
        return traced

    def span(self, name: str):
        return _Span(self, self.nid(name))

    def install(self, callers=()) -> None:
        """Wrap every target in gspace's modules and in the `callers` modules."""
        hooks = self._hooks()
        for modname, attr, name in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, meth or attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            if name == "hyperspaces.enumerate_all":
                new = self.wrap_generator(orig, name)
            else:
                pre, post = hooks.get(name, (None, None))
                new = self.wrap(orig, name, pre, post)
            if owner_name:
                setattr(owner, meth, new)
            else:
                _replace_everywhere(orig, new, callers)
        mod = sys.modules.get(CENSUS[0])
        orig = getattr(mod, CENSUS[1], None)
        if orig is None:
            self.absent.append(".".join(CENSUS))
        else:
            _replace_everywhere(orig, self._counting(orig), callers)

    def _counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.census_items += 1
                yield item
        return counted

    def _hooks(self) -> dict:
        def cells(_, __, result):
            table = result[0]
            self.add("batch.cells", len(table) * (len(table[0]) if len(table) else 0))

        def rss_before(_):
            return current_rss()

        def rss_after(before, _, __):
            self.peak("structure.view_rss_delta", current_rss() - before)

        def census_before(_):
            return self.census_items

        def census_after(before, _, result):
            tested = self.census_items - before
            if tested:
                self.add("classify.tested", tested)
                self.add("classify.kept", len(result))

        def triples(_, args, __):
            self.add("structure.is_associative_triples", len(args[0].table) ** 3)

        def nodes(_, __, result):
            self.add("structure.section_nodes", result.nodes)

        return {
            "batch.build_table": (None, cells),
            "structure.subsemigroup_view": (rss_before, rss_after),
            "classify.enumerate_class": (census_before, census_after),
            "structure.is_associative": (None, triples),
            "structure.find_sections": (None, nodes),
        }

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        flat = np.frombuffer(self.rec, dtype=np.int64).reshape(-1, len(self.FIELDS))
        out = {k: flat[:, i].copy() for i, k in enumerate(self.FIELDS)}
        out["parent"] = np.where(out["parent"] >= 0, out["parent"] // len(self.FIELDS), -1)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = dur - a["child"]
        nid = a["name_id"]

        def sel(name):
            return nid == self._ids[name] if name in self._ids else np.zeros(len(nid), bool)

        def total(name, which=dur):
            return float(which[sel(name)].sum()) / 1e9

        def calls(name):
            return int(sel(name).sum())

        def pct_us(name, q):
            d = dur[sel(name)]
            return float(np.percentile(d, q)) / 1e3 if len(d) else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts.get
        m: dict[str, float] = {}
        m["hyperspaces.enumerate_s"] = total("hyperspaces.enumerate_all")
        m["hyperspaces.families"] = c("families", 0)
        m["hyperspaces.families_per_s"] = ratio(m["hyperspaces.families"],
                                                m["hyperspaces.enumerate_s"])
        m["classify.enumerate_class_s"] = total("classify.enumerate_class")
        m["classify.tested"] = c("classify.tested", 0)
        m["classify.kept"] = c("classify.kept", 0)
        m["classify.keep_ratio"] = ratio(m["classify.kept"], m["classify.tested"])
        m["classify.maxlinked_s"] = total("classify.maximal_linked_families")
        m["classify.classify_calls"] = calls("classify.classify")
        m["classify.classify_p50_us"] = pct_us("classify.classify", 50)
        m["classify.classify_p99_us"] = pct_us("classify.classify", 99)
        m["products.product_calls"] = calls("products.product")
        m["products.product_s"] = total("products.product")
        m["products.product_p50_us"] = pct_us("products.product", 50)
        m["products.product_p99_us"] = pct_us("products.product", 99)
        m["products.via_base_calls"] = calls("products.product_via_base")
        m["products.via_base_s"] = total("products.product_via_base")
        m["products.transform_calls"] = calls("products.product_transform")
        m["products.transform_s"] = total("products.product_transform")
        m["batch.build_table_s"] = total("batch.build_table")
        m["batch.self_s"] = total("batch.build_table", own)
        # cells per table build; a lambda-z6 pass builds the same table twice
        m["batch.cells"] = ratio(c("batch.cells", 0), calls("batch.build_table"))
        m["batch.cells_per_s"] = ratio(c("batch.cells", 0), m["batch.build_table_s"])
        m["structure.view_s"] = total("structure.subsemigroup_view")
        m["structure.view_self_s"] = total("structure.subsemigroup_view", own)
        m["structure.view_rss_delta_mb"] = c("structure.view_rss_delta", 0) / 2 ** 20
        for short, name in (("special_elements", "special_elements"), ("center", "center"),
                            ("min_left_ideals", "minimal_left_ideals"),
                            ("min_right_ideals", "minimal_right_ideals"),
                            ("minimal_ideal", "minimal_ideal"),
                            ("is_associative", "is_associative")):
            m[f"structure.{short}_s"] = total(f"structure.{name}")
        m["structure.is_associative_triples"] = c("structure.is_associative_triples", 0)
        m["structure.orbits_s"] = total("structure.orbits")
        m["structure.orbits_self_s"] = total("structure.orbits", own)
        m["structure.find_sections_s"] = total("structure.find_sections")
        m["structure.section_nodes"] = c("structure.section_nodes", 0)
        m["structure.nodes_per_s"] = ratio(m["structure.section_nodes"],
                                           total("structure.find_sections", own))
        m["structure.are_isomorphic_s"] = total("structure.are_isomorphic")
        m["verify.checks_s"] = total("verify.check")
        for verb in CLI_VERBS:
            m[f"cli.{verb}_s"] = total(f"cli.{verb}")
        m["cli.render_self_s"] = sum(total(f"cli.{verb}", own) for verb in CLI_VERBS)
        m["cli.output_bytes"] = c("cli.output_bytes", 0)
        return m


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.leave(self.idx)
        return False


def _replace_everywhere(orig, new, callers) -> None:
    """Rebind every attribute that is `orig` in gspace's modules and `callers`."""
    mods = [mod for name, mod in list(sys.modules.items())
            if name == "gspace" or name.startswith("gspace.")]
    for mod in mods + list(callers):
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
