"""g/c/d-vectors, dual bases, the fan and the associahedron."""

import dataclasses
import random

import pytest

from nonkissing.errors import NotClosed, VHMismatch
from nonkissing.facets import enumerate_facets, peak_facet
from nonkissing.families import (
    a_path,
    cambrian,
    cycle_quiver,
    double_cycle,
    loop_quiver,
    reversed_path,
)
from nonkissing.geometry import (
    _bareiss,
    _wall_normal,
    build_associahedron,
    build_fan,
    d_vectors,
    dual_basis_check,
    g_vector,
    graph_matrices,
    sign_coherence_report,
    vec_dot,
)
from nonkissing.quiver import blossom
from nonkissing.walks import (
    deep_walk,
    peak_walk,
    straight_walks,
)
from oracles import (
    fraction_det,
    fraction_rank,
    fraction_wall_normal,
    pairwise_edge_report,
    walk_d_vector,
    walk_facet_matrices,
    walk_total_kissing_number,
)

# closed flip graphs with a complete walk universe, small enough for the
# O(F^2 |U|) pairwise oracle
POLYTOPE_CORPUS = {
    "apath2": a_path(2),
    "apath3": a_path(3),
    "apath4": a_path(4),
    "cambrian-FRF": cambrian("FRF"),
    "reversedpath2": reversed_path(2),
    "reversedpath3": reversed_path(3),
    "cycle2": cycle_quiver(2),
    "cycle3": cycle_quiver(3),
    "loop": loop_quiver(),
}


@pytest.fixture(scope="module")
def polytopes():
    out = {}
    for name, q in POLYTOPE_CORPUS.items():
        g = enumerate_facets(q)
        out[name] = (g, build_associahedron(g))
    return out


def test_straight_walks_have_zero_g_vector():
    for q in (a_path(2), loop_quiver(), reversed_path(2)):
        bq = blossom(q)
        for w in straight_walks(bq):
            assert g_vector(bq, w) == (0,) * len(q.vertices)


def test_peak_walk_g_vector_is_basis_vector():
    for q in (a_path(2), a_path(3), loop_quiver()):
        bq = blossom(q)
        for i, v in enumerate(q.vertices):
            g = g_vector(bq, peak_walk(bq, v))
            assert g == tuple(1 if j == i else 0 for j in range(len(q.vertices)))


def test_paper_example_matrices_pass_fixture_checks():
    # the published g-, c-, d-matrices of a two-vertex facet, used as a
    # matrix-level fixture: columns pair into dual bases and are sign-coherent
    G = [(1, -1), (0, -1)]
    C = [(1, 0), (-1, -1)]
    D = [(1, 0), (0, -1)]
    for i in range(2):
        for j in range(2):
            assert vec_dot(G[i], C[j]) == (1 if i == j else 0)
    for row in range(2):
        coords = [G[col][row] for col in range(2)]
        nonzero = {x > 0 for x in coords if x != 0}
        assert len(nonzero) <= 1
    for col in (*C, *D):
        assert not (any(x > 0 for x in col) and any(x < 0 for x in col))


def test_peak_facet_c_vectors_are_positive_basis():
    for q in (a_path(2), a_path(3)):
        bq = blossom(q)
        facet = peak_facet(bq)
        walks, _, cs = walk_facet_matrices(bq, facet)
        for i, v in enumerate(q.vertices):
            c = cs[walks.index(peak_walk(bq, v))]
            assert c == tuple(1 if j == i else 0 for j in range(len(q.vertices)))


def test_dual_basis_identity_everywhere():
    for q in (a_path(2), a_path(3), loop_quiver(), reversed_path(2), cycle_quiver(2)):
        bq = blossom(q)
        g = enumerate_facets(q)
        for facet in g.facets:
            assert dual_basis_check(walk_facet_matrices(bq, facet)) == []


def test_deep_walk_d_vector_is_negative_basis():
    for q in (a_path(2), a_path(3), loop_quiver()):
        bq = blossom(q)
        for i, v in enumerate(q.vertices):
            d = walk_d_vector(bq, deep_walk(bq, v))
            assert d == tuple(-1 if j == i else 0 for j in range(len(q.vertices)))


def test_a2_d_vectors_are_cluster_denominators():
    # frozen from direct kiss computation: the five bending walks carry the
    # classical A2 denominator vectors
    q = a_path(2)
    bq = blossom(q)
    g = enumerate_facets(q)
    walks = {w for f in g.facets for w in f.bending}
    ds = sorted(walk_d_vector(bq, w) for w in walks)
    assert ds == [(-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]


def test_loop_peak_d_vector_is_positive_basis():
    bq = blossom(loop_quiver())
    assert walk_d_vector(bq, peak_walk(bq, "v1")) == (1,)


def test_sign_coherence_on_corpus():
    for q in (a_path(2), a_path(3), loop_quiver(), reversed_path(2), cycle_quiver(2)):
        bq = blossom(q)
        g = enumerate_facets(q)
        assert sign_coherence_report(g, graph_matrices(g)) == []


def test_fan_a2_five_cones_complete():
    q = a_path(2)
    g = enumerate_facets(q)
    fan = build_fan(g)
    assert len(fan.cones) == 5
    assert fan.report == ()
    rays = {r for cone in fan.cones for r in cone.rays}
    assert rays == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)}


def test_fan_loop_two_halflines():
    g = enumerate_facets(loop_quiver())
    fan = build_fan(g)
    assert sorted(cone.rays for cone in fan.cones) == [((-1,),), ((1,),)]
    assert fan.report == ()


def test_fan_needs_closed_graph():
    g = enumerate_facets(a_path(3), max_facets=3)
    with pytest.raises(NotClosed):
        build_fan(g)


def test_g_vectors_sign_coherent_per_facet():
    q = a_path(3)
    bq = blossom(q)
    g = enumerate_facets(q)
    for facet in g.facets:
        _, gs, _ = walk_facet_matrices(bq, facet)
        for k in range(3):
            signs = {x[k] > 0 for x in gs if x[k] != 0}
            assert len(signs) <= 1


def _polytope(q):
    g = enumerate_facets(q)
    return blossom(q), g, build_associahedron(g)


def test_a2_associahedron_is_a_pentagon():
    bq, g, poly = _polytope(a_path(2))
    verts = {tuple(int(x) for x in v) for v in poly.vertices}
    assert verts == {(2, 2), (-2, 2), (2, 0), (-2, -2), (0, -2)}
    assert len(poly.defining) == 5
    # straight walks contribute the trivial halfspace and are dropped
    zero = [(n, b) for n, b in poly.halfspaces if all(x == 0 for x in n)]
    assert zero and all(b == 0 for _, b in zero)
    assert all(any(x != 0 for x in n) for n, _ in poly.defining)


def test_loop_associahedron_is_a_segment():
    bq, g, poly = _polytope(loop_quiver())
    verts = sorted(tuple(int(x) for x in v) for v in poly.vertices)
    assert verts == [(-2,), (2,)]
    assert sorted(poly.defining) == [((-1,), 2), ((1,), 2)]


def test_polytope_vertices_lie_on_their_facet_bounds():
    for q in (a_path(2), loop_quiver(), reversed_path(2)):
        bq, g, poly = _polytope(q)
        for i, facet in enumerate(g.facets):
            for w in facet.walks:
                bound = walk_total_kissing_number(bq, w)
                assert vec_dot(g_vector(bq, w), poly.vertices[i]) == bound


def test_polytope_needs_complete_universe():
    from nonkissing.errors import IncompleteUniverse

    # the one-vertex double cycle has a closed flip graph and a band, so
    # its walk enumeration never closes
    g = enumerate_facets(double_cycle(1))
    assert g.closed
    with pytest.raises(IncompleteUniverse, match="polytope construction needs the complete walk set"):
        build_associahedron(g)


def _random_matrix(rng, rows, cols):
    m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:
        # a dependent row: an integer combination of two others
        a, b = rng.sample(range(rows), 2)
        k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
        m[a] = [k1 * x + k2 * y for x, y in zip(m[a], m[b])]
    return m


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(20181)
    for _ in range(600):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        rank, det = _bareiss(m)
        assert rank == (fraction_rank(m) if m else 0), m
        if rows == cols or not m:  # no rows: the empty 0x0 matrix
            assert det == fraction_det(m), m
        else:
            assert det == 0, m
    assert _bareiss([]) == (0, 1)
    assert _bareiss([[0, 0], [0, 0]]) == (0, 0)
    assert _bareiss([[0, 0, 0]]) == (0, 0)


def test_wall_normal_matches_fraction_nullspace():
    rng = random.Random(20182)
    for _ in range(400):
        d = rng.randint(1, 5)
        shared = _random_matrix(rng, d - 1, d)
        witness = [rng.randint(-3, 3) for _ in range(d)]
        got = _wall_normal(shared, witness)
        want = fraction_wall_normal(shared, witness)
        if want is None:
            assert got is None, (shared, witness)
            continue
        # the same functional up to a positive factor
        assert got is not None, (shared, witness)
        k = next(i for i, x in enumerate(got) if x)
        assert all(x * want[k] == got[k] * y for x, y in zip(got, want))
        assert got[k] * want[k] > 0
        assert all(vec_dot(got, r) == 0 for r in shared)
        assert vec_dot(got, witness) > 0


def test_edge_certificate_agrees_with_pairwise_oracle(polytopes):
    for name, (g, poly) in polytopes.items():
        assert pairwise_edge_report(poly.vertices, poly.halfspaces, g) == [], name
        assert len(poly.vertices) == len(g.facets), name
        assert all(isinstance(x, int) for v in poly.vertices for x in v), name


def _drop_flip(g, i, j):
    pair = {i, j}
    kept = tuple(e for e in g.edges if {e.source, e.target} != pair)
    return dataclasses.replace(g, edges=kept)


def _add_flip(g, i, j):
    first = g.edges[0]
    extra = dataclasses.replace(first, source=i, target=j)
    return dataclasses.replace(g, edges=g.edges + (extra,))


def test_mutated_flip_graph_raises_vh_mismatch(polytopes):
    for name in ("apath3", "cambrian-FRF", "cycle2", "loop"):
        g, poly = polytopes[name]
        adjacent = {frozenset((e.source, e.target)) for e in g.edges}
        e = g.edges[0]
        dropped = _drop_flip(g, e.source, e.target)
        assert pairwise_edge_report(poly.vertices, poly.halfspaces, dropped), name
        with pytest.raises(VHMismatch):
            build_associahedron(dropped)
        far = [
            (i, j)
            for i in range(len(g.facets))
            for j in range(i + 1, len(g.facets))
            if frozenset((i, j)) not in adjacent
        ]
        if not far:  # the loop's two facets are adjacent
            continue
        added = _add_flip(g, *far[0])
        assert pairwise_edge_report(poly.vertices, poly.halfspaces, added), name
        with pytest.raises(VHMismatch):
            build_associahedron(added)


def test_degree_preserving_edge_swap_raises_vh_mismatch(polytopes):
    # {a,b}, {c,e} -> {a,c}, {b,e}: every flip degree stays d, so only the
    # rank test on the common tight normals of an edge can catch it
    g, poly = polytopes["apath3"]
    adjacent = sorted(
        tuple(sorted((e.source, e.target))) for e in g.edges if e.source < e.target
    )
    (a, b), (c, e) = next(
        (x, y)
        for x in adjacent
        for y in adjacent
        if len({*x, *y}) == 4
        and (min(x[0], y[0]), max(x[0], y[0])) not in adjacent
        and (min(x[1], y[1]), max(x[1], y[1])) not in adjacent
    )
    swapped = _add_flip(_add_flip(_drop_flip(_drop_flip(g, a, b), c, e), a, c), b, e)
    assert pairwise_edge_report(poly.vertices, poly.halfspaces, swapped)
    with pytest.raises(VHMismatch, match="disagrees with the flip graph"):
        build_associahedron(swapped)


def test_fan_reports_on_corpus(polytopes):
    for name, (g, poly) in polytopes.items():
        fan = build_fan(g)
        assert fan.report == (), name
        assert len(fan.cones) == len(g.facets), name
    g, poly = polytopes["apath3"]
    e = g.edges[0]
    fan = build_fan(_drop_flip(g, e.source, e.target))
    assert fan.report == ("fan walls do not match the flip graph edges",)


def test_precomputed_matrices_change_nothing():
    # the matrices read from the stored data equal the facet-by-facet ones,
    # and the d-vectors of the graph's context equal the walk-by-walk ones
    for q in (a_path(3), cycle_quiver(2), loop_quiver()):
        bq = blossom(q)
        g = enumerate_facets(q)
        assert graph_matrices(g) == [walk_facet_matrices(bq, f) for f in g.facets]
        dvecs = d_vectors(g)
        for ids in g.ids:
            for i in ids:
                assert dvecs[i] == walk_d_vector(bq, g.ctx.walks[i])
