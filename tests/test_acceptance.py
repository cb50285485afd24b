"""Acceptance suite: one test per criterion, printed pass/fail lines.

All checks are exact (integer / rational arithmetic, isomorphism, equality);
no tolerances are involved anywhere.
"""

import itertools
import random

import pytest

from nonkissing.facets import (
    brute_force_facets,
    enumerate_facets,
    verify_distinguished_census,
    verify_purity,
    verify_thinness,
)
from nonkissing.families import (
    a_path,
    corpus,
    cycle_quiver,
    random_locally_gentle,
    reversed_path,
)
from nonkissing.geometry import (
    build_associahedron,
    build_fan,
    dual_basis_check,
    graph_matrices,
    sign_coherence_report,
    vec_dot,
)
from nonkissing.quiver import blossom, is_isomorphic, koszul_dual
from nonkissing.surface import (
    crossing_count,
    curve_of_walk,
    dual_dissection,
    quiver_from_surface,
    strip_dual,
    surface_from_quiver,
    surface_invariants,
    surfaces_isomorphic,
    swap_dissections,
)
from nonkissing.walks import kiss_count, kn_pair, walk_universe

from oracles import walk_facet_matrices, window_scan_kiss_count

COMPLETE_INSTANCES = ("a2", "a3", "loop", "cycle2", "reversedpath2", "reversedpath3")


def _report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok, criterion


@pytest.fixture(scope="module")
def built():
    data = {}
    for name in COMPLETE_INSTANCES:
        q = corpus()[name]
        bq = blossom(q)
        g = enumerate_facets(q)
        data[name] = (q, bq, g, walk_universe(bq, "the acceptance criteria"))
    return data


def test_criterion_1_blossom_counts():
    rng = random.Random(20260810)
    ok = True
    for _ in range(50):
        q = random_locally_gentle(rng, max_vertices=8)
        bq = blossom(q)
        n0, n1 = len(q.vertices), len(q.arrows)
        ok &= len(bq.quiver.vertices) == 5 * n0 - 2 * n1
        ok &= len(bq.quiver.arrows) == 4 * n0 - n1
    _report("criterion 1: blossoming size formulas on 50 random quivers", ok)


def test_criterion_2_koszul_duality():
    ok = True
    for name, q in corpus().items():
        ok &= is_isomorphic(koszul_dual(koszul_dual(q)), q)
        ok &= is_isomorphic(
            blossom(koszul_dual(q)).quiver, koszul_dual(blossom(q).quiver)
        )
    _report("criterion 2: Koszul involution and blossom commutation", ok)


def test_criterion_3_oracle_equivalence(built):
    expected = {"a2": 5, "a3": 14, "loop": 2, "reversedpath2": 6, "reversedpath3": 24}
    ok = True
    for name, count in expected.items():
        q, bq, g, walks = built[name]
        oracle = brute_force_facets(q)
        ok &= g.closed
        ok &= sorted(f.key for f in g.facets) == sorted(f.key for f in oracle)
        ok &= len(g.facets) == count
    _report("criterion 3: flip BFS equals clique oracle (5/14/2/6/24 facets)", ok)


def test_criterion_4_purity(built):
    ok = all(verify_purity(g) == [] for _, _, g, _ in built.values())
    _report("criterion 4: purity (bending / straight / total counts)", ok)


def test_criterion_5_thinness(built):
    ok = all(verify_thinness(g) == [] for _, _, g, _ in built.values())
    _report("criterion 5: thinness and flip involution", ok)


def test_criterion_6_distinguished_census(built):
    ok = all(verify_distinguished_census(g) == [] for _, _, g, _ in built.values())
    _report("criterion 6: distinguished arrow census 2/1/0", ok)


def test_criterion_7_vector_identities(built):
    ok = True
    for name, (q, bq, g, walks) in built.items():
        for facet in g.facets:
            ok &= dual_basis_check(walk_facet_matrices(bq, facet)) == []
        ok &= sign_coherence_report(g, graph_matrices(g)) == []
    # published example matrices as a fixture
    G = [(1, -1), (0, -1)]
    C = [(1, 0), (-1, -1)]
    D = [(1, 0), (0, -1)]
    for i in range(2):
        for j in range(2):
            ok &= vec_dot(G[i], C[j]) == (1 if i == j else 0)
    for col in (*C, *D):
        ok &= not (any(x > 0 for x in col) and any(x < 0 for x in col))
    for row in range(2):
        vals = [G[col][row] for col in range(2) if G[col][row] != 0]
        ok &= len({x > 0 for x in vals}) <= 1
    _report("criterion 7: duality, sign coherence, example matrices", ok)


def test_criterion_8_fan_and_polytope(built):
    ok = True
    for name in ("a2", "loop"):
        q, bq, g, walks = built[name]
        fan = build_fan(g)
        ok &= fan.report == ()
        poly = build_associahedron(g)
        if name == "a2":
            ok &= len(poly.vertices) == 5
            ok &= len(poly.defining) == 5
    _report("criterion 8: complete simplicial fan and exact V=H polytopes", ok)


def test_criterion_9_surface_invariants():
    table = []
    table.append((a_path(4), 1, 0, 0, 0))
    for n in (2, 3, 4):
        table.append((reversed_path(n), 1, 0, n - 1, 0))
    from nonkissing.families import double_path, double_cycle

    for n in (2, 3, 4, 5):
        b = 1 if n % 2 else 2
        g = (n - 1) // 2 if n % 2 else (n - 2) // 2
        table.append((double_path(n), b, 0, 0, g))
    for n in (1, 2, 3):
        table.append((cycle_quiver(n), 1, 1, 0, 0))
    for n in (1, 2, 3, 4, 5):
        p = 1 if n % 2 else 2
        g = (n - 1) // 2 if n % 2 else (n - 2) // 2
        table.append((double_cycle(n), 0, p, 2, g))
    ok = True
    for q, b, p, p_dual, genus in table:
        inv = surface_invariants(surface_from_quiver(q))
        ok &= (inv["b"], inv["p"], inv["p_dual"], inv["genus"]) == (b, p, p_dual, genus)
        ok &= inv["euler"] == 2 - 2 * inv["genus"] - inv["b"]
    _report("criterion 9: surface invariant tables with Euler cross-check", ok)


def test_criterion_10_round_trips():
    ok = True
    for name, q in corpus().items():
        s = surface_from_quiver(q)
        ok &= is_isomorphic(quiver_from_surface(s), q)
        ok &= is_isomorphic(quiver_from_surface(swap_dissections(s)), koszul_dual(q))
        ok &= surfaces_isomorphic(
            swap_dissections(s), surface_from_quiver(koszul_dual(q))
        )
        ok &= surfaces_isomorphic(dual_dissection(strip_dual(s)), s)
    _report("criterion 10: quiver/surface round trips and Koszul swap", ok)


def test_criterion_11_kissing_crossing_dictionary(built):
    ok = True
    for name, (q, bq, g, walks) in built.items():
        curves = {w: curve_of_walk(bq, w) for w in walks}
        for w1, w2 in itertools.product(walks, repeat=2):
            ok &= crossing_count(bq, curves[w1], curves[w2]) == kn_pair(bq, w1, w2)
            if w1.ltail or w1.rtail or w2.ltail or w2.rtail:
                # the oracle's windows unrolled by 2 more periods of each tail
                ok &= window_scan_kiss_count(bq, w1, w2, 2) == kiss_count(bq, w1, w2)
    _report("criterion 11: crossing = kissing and unroll stability", ok)
