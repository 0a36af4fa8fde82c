import dataclasses
import importlib

import gspace
from gspace import Groupoid, Hyperspace
from gspace.structure import SemigroupView

# helpers deleted because nothing outside the tests called them
DELETED = {
    "gspace": ("full_view", "shift_invariant_core", "lattice_combine", "meet",
               "join", "transversal", "minimal_sets", "support", "census_count"),
    "gspace.classify": ("census_count", "_centered_mask", "shift_closures", "_holds",
                        "_meet_round", "_transversal_words"),
    "gspace.hyperspaces": ("lattice_combine", "meet", "join", "transversal",
                           "minimal_sets", "support"),
    "gspace.structure": ("full_view", "section_view", "shift_invariant_core",
                         "_principal_two_sided_ideal", "CENTER_SAMPLES", "CENTER_SEED",
                         "_refine_colors", "_REDUCED_MIN", "_transpose_in_place", "_TILE",
                         "_minimal_row_ideals", "_point_identities"),
    "gspace.products": ("image_shift", "product_transform"),
    "gspace.terms": ("all_term_strings",),
    "gspace.cli": ("_view_for", "_class_elements", "_report"),
}
DELETED_METHODS = ((Hyperspace, "support"), (Hyperspace, "member_count"),
                   (Groupoid, "mul"), (Groupoid, "element_index"),
                   (SemigroupView, "_associative"), (SemigroupView, "shift"),
                   (SemigroupView, "lshift"), (SemigroupView, "_shifts"))


def test_public_surface():
    for name in gspace.__all__:
        assert hasattr(gspace, name), name
    for module, names in DELETED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert name not in gspace.__all__
    for cls, name in DELETED_METHODS:
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_view_fields():
    # `closed` and `escape` are read off the table, never passed in
    init = [f.name for f in dataclasses.fields(SemigroupView) if f.init]
    assert init == ["groupoid", "words", "table"]
