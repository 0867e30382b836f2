"""Special matchings on finite posets, zircons, and Bruhat-order checks.

The library checks Hultman's theorem that the fixed points of an
automorphism of a zircon form a zircon, with the twisted involutions of
a finite Coxeter group as the main example. Its modules hold poset
plumbing (ideals, intervals, Mobius function, automorphisms), special
matchings and the lifting property, the zircon test and the fixed-point
matching construction, finite Coxeter groups of types A/B/D/I2 with
their Bruhat orders, descent matchings and twisted involutions, a
corpus of small posets, and the sweep over it. Each construction is
tested against an independent brute-force oracle.

The package re-exports exactly the names in its modules' ``__all__``
lists; a name that only the tests called is not kept public.
"""

__version__ = "1.0.0"

from .posets import (
    Poset,
    PosetMap,
    PosetError,
    CycleError,
    DuplicateElementError,
    UnknownElementError,
    RedundantCoverError,
    NotComparableError,
    NotAutomorphismError,
    build_poset,
    leq,
    principal_ideal,
    interval,
    rank_function,
    mobius,
    automorphisms,
    induced_subposet,
    are_isomorphic,
    is_bounded,
    poset_to_dict,
    poset_from_dict,
    poset_to_dot,
    map_from_dict,
)
from .matchings import (
    MatchingError,
    SearchLimitError,
    Verdict,
    SpecialMatching,
    DEFAULT_MATCHING_LIMIT,
    is_matching,
    is_special,
    enumerate_special_matchings,
    has_special_matching,
    verify_lifting,
    matching_pairs,
    matching_from_dict,
)
from .zircon import (
    BoundednessError,
    ExtremaError,
    ConstructionError,
    MatchingFamily,
    is_zircon,
    is_zircon_ranked,
    matching_family,
    orbit_component,
    component_extrema,
    greedy_descend,
    fixed_point_subposet,
    fixed_point_matching,
    fixed_point_report,
)
from .coxeter import (
    CoxeterError,
    GroupElement,
    CoxeterSystem,
    DiagramAutomorphism,
    build_coxeter,
    bruhat_poset,
    descent_matching,
    theta_from_spec,
    twisted_map,
    twisted_involutions,
    fix_subgroup_poset,
)
from .corpus import (
    MAX_EXHAUSTIVE_N,
    enumerate_posets,
    enumerate_matchings,
    mobius_oracle,
    mobius_matrix,
    random_poset,
)
from .sweep import SweepReport, ManifestError, run_sweep, validate_manifest
