"""Non-kissing / non-crossing complexes of locally gentle bound quivers."""

from .quiver import (
    BlossomQuiver,
    BoundQuiver,
    blossom,
    canonical_key,
    is_isomorphic,
    koszul_dual,
    make_quiver,
    quiver_from_dict,
    quiver_from_json,
    validate_locally_gentle,
)
from .walks import (
    Walk,
    canonicalize,
    deep_walk,
    deep_walks,
    enumerate_walks,
    kiss_count,
    kissing,
    parse_walk,
    peak_walk,
    primitive_cycles,
    straight_walks,
    total_kissing_number,
    walk_universe,
)
from .facets import (
    Facet,
    FlipGraph,
    QuiverContext,
    brute_force_facets,
    countercurrent_less,
    distinguished_data,
    enumerate_facets,
    flip,
    maximal_cliques,
    peak_facet,
    deep_facet,
    verify_purity,
    verify_thinness,
    walks_through_cycles_check,
)
from .geometry import (
    build_associahedron,
    build_fan,
    d_vector,
    dual_basis_check,
    g_vector,
)
from .surface import (
    SurfaceModel,
    crossing_count,
    curve_of_walk,
    dual_dissection,
    quiver_from_surface,
    strip_dual,
    surface_from_quiver,
    surface_invariants,
    swap_dissections,
    walk_of_curve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
