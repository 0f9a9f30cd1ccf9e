"""Reduced words of permutations: commutation classes, braid-move graphs,
ranked posets, subnetwork enumeration, and counting bounds."""

__version__ = "0.1.0"

from .errors import BudgetExceeded, InputError, InvariantViolation
from .perm import (
    Perm,
    avoids,
    check_perm,
    enumerate_sn,
    identity,
    inverse,
    inversions,
    longest_element,
    parse_perm,
    pattern_count,
)
from .words import (
    Letters,
    Word,
    canonical_form,
    count_reduced_words,
    enumerate_reduced_words,
    evaluate,
    index_sum,
    parse_word,
    word_of,
)
from .classes import (
    ClassGraph,
    CommClass,
    RankedPoset,
    build_graph,
    build_poset,
    class_members,
    graph_checks,
)
from .subnet import (
    WARRINGTON_X,
    WordSet,
    complement_word,
    count_212,
    count_subnetworks,
    count_x_avoiding_classes,
    count_x_avoiding_words,
    friendliness,
    induced_word,
    predicted_count_friendly,
    predicted_count_w0_s4,
    reverse_word,
    s4_longest_classes,
    word_set,
)
from .structure import (
    CycleVerdict,
    HypercubeWitness,
    RectangleSpec,
    classify_edge_pair,
    embed_hypercube,
    is_freely_braided,
    is_rectangular,
    rectangle_label,
)
from .bounds import aggregate_bound_check, catalan, paren_encoding, size_bounds
