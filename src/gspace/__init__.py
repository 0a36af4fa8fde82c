"""Semigroups of inclusion hyperspaces over finite groupoids.

The space of inclusion hyperspaces of a finite carrier (all upward-closed
families of non-empty subsets) carries meet, join, and transversality, and
any binary operation on the carrier extends to a product on it. This package
builds these objects, classifies families (linked, centered, filters,
ultrafilters, maximal linked), and analyzes the resulting finite semigroups
(zeros, ideals, centers, cancelability, orbits, splittability).
"""

from .classify import (ClassFlags, classify, enumerate_class, is_centered,
                       is_filter, is_k_linked, is_maximal_k_linked,
                       is_self_transversal, is_shift_invariant,
                       is_ultrafilter, maximal_linked_families)
from .errors import BudgetExceeded, GspaceError, InputError
from .groupoids import (Groupoid, build_builtin, groupoid_properties,
                        is_homomorphism, parse_groupoid)
from .hyperspaces import (Hyperspace, enumerate_all, format_hyperspace,
                          generate, largest, mask_elements, parse_hyperspace,
                          principal, smallest, subset_mask)
from .products import (induced_map, left_shift, preimage_shift, product,
                       product_via_base)
from .structure import (CancelCertificate, OrbitDecomposition, SectionSearch,
                        SemigroupView, SpecialElements, are_isomorphic,
                        center, center_of_gx, find_sections, lambda_view,
                        minimal_ideal, minimal_left_ideals,
                        minimal_right_ideals, orbits,
                        right_cancelable_certificate, special_elements,
                        subsemigroup_view)
from .terms import term_string

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CancelCertificate", "ClassFlags", "Groupoid",
    "GspaceError", "Hyperspace", "InputError", "OrbitDecomposition",
    "SectionSearch", "SemigroupView", "SpecialElements", "are_isomorphic",
    "build_builtin", "center", "center_of_gx", "classify", "enumerate_all",
    "enumerate_class", "find_sections", "format_hyperspace", "generate",
    "groupoid_properties", "induced_map", "is_centered", "is_filter",
    "is_homomorphism", "is_k_linked", "is_maximal_k_linked",
    "is_self_transversal", "is_shift_invariant", "is_ultrafilter",
    "lambda_view", "largest", "left_shift", "mask_elements",
    "maximal_linked_families", "minimal_ideal", "minimal_left_ideals",
    "minimal_right_ideals", "orbits", "parse_groupoid", "parse_hyperspace",
    "preimage_shift", "principal", "product", "product_via_base",
    "right_cancelable_certificate", "smallest", "special_elements",
    "subset_mask", "subsemigroup_view", "term_string",
]
