"""Exact Weyl-group combinatorics for the rank-two rational forms of SO(n,2).

The package computes, in exact rational arithmetic: minimal coset
representatives of the two standard maximal parabolic subgroups via a
breadth-first walk over a fundamental-weight orbit, their Bruhat covers,
the restricted Levi highest weights attached to each representative, the
normalized Eisenstein evaluation coefficients, and the resulting degree
supports — plus a brute-force full-group oracle for verification at small
rank.
"""

from .errors import (
    DimensionError,
    IndexRangeError,
    NeedsAssignmentError,
    NotCosetRepresentativeError,
    OrthoweylError,
    RankGuardError,
    RegimeError,
    RegularityError,
    UnsupportedKindError,
    UnsupportedRankError,
)
from .linform import LinearForm, Rational, parse_rational
from .rootsystem import (
    DynkinKind,
    RootDatum,
    Weight,
    make_datum,
    rho,
)
from .weylgroup import (
    GroupElement,
    WeylWord,
    apply_word,
    enumerate_group,
    minimal_reps_bruteforce,
    render_word,
    word_action_matrix,
    word_length,
)
from .hasse import (
    HasseDiagram,
    HasseNode,
    ParabolicChoice,
    build_hasse,
    delta_weight,
    length_histogram,
    to_dot,
    to_json_dict,
    with_bruhat_covers,
)
from .orthogroup import (
    GroupSpec,
    LeviFactor,
    LeviSubgroup,
    MaximalParabolic,
    RestrictionData,
    VanishingBounds,
    crossed_simple_roots,
    cuspidal_degrees,
    group_spec,
    levi_rho_coefficient,
    levi_subgroups,
    nilradical_dim,
    parabolic_choice,
    restrict,
    restriction_basis,
    vanishing_bounds,
)
from .eisenstein import (
    DegreeSupport,
    GenerationEntry,
    KostantRecord,
    ParabolicReport,
    Report,
    degree_support,
    evaluation_coefficient,
    full_report,
    holomorphy_guaranteed,
    kostant_record,
    kostant_restriction,
)

__version__ = "0.1.0"
