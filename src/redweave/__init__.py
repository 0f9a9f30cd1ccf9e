"""Reduced words of permutations: commutation classes, braid-move graphs,
ranked posets, subnetwork enumeration, and counting bounds.

The names below are loaded on first use (PEP 562), so ``import redweave``
loads only ``errors`` and each name costs the import of its own module.
"""

from importlib import import_module

from .errors import BudgetExceeded, InputError, InvariantViolation

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names it exports
    "perm": "Perm avoids check_perm enumerate_sn identity inverse inversions "
            "longest_element parse_perm pattern_count",
    "words": "Letters Word canonical_form count_reduced_words enumerate_reduced_words "
             "evaluate index_sum parse_word word_of",
    "classes": "ClassGraph CommClass RankedPoset build_graph build_poset class_members "
               "graph_checks",
    "subnet": "WARRINGTON_X WordSet complement_word count_subnetworks "
              "count_x_avoiding_classes count_x_avoiding_words friendliness induced_word "
              "predicted_count_friendly predicted_count_w0_s4 reverse_word "
              "s4_longest_classes word_set",
    "structure": "CycleVerdict HypercubeWitness RectangleSpec classify_edge_pair "
                 "embed_hypercube is_freely_braided is_rectangular rectangle_label",
    "bounds": "aggregate_bound_check catalan paren_encoding size_bounds",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(["BudgetExceeded", "InputError", "InvariantViolation", *_MODULE_OF])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # the next read finds it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
