"""Surface construction, invariants, round trips and the curve dictionary."""

import ast
import itertools
import random
from pathlib import Path

import pytest

import nonkissing.walks
from nonkissing.errors import (
    DifferentSurface,
    InconsistentEuler,
    MissingDualPoint,
    MultipleDualPoints,
    NotCellular,
    NotReducedCrossing,
)
from nonkissing.families import (
    a_path,
    cambrian,
    corpus,
    cycle_quiver,
    double_cycle,
    double_path,
    loop_quiver,
    random_locally_gentle,
    reversed_path,
)
from nonkissing.quiver import blossom, is_isomorphic, koszul_dual
from nonkissing.surface import (
    KINDS,
    CrossingSequence,
    GreenView,
    SurfaceModel,
    crossing_count,
    curve_of_walk,
    dual_dissection,
    next_face,
    quiver_from_surface,
    start_corner,
    strip_dual,
    surface_dump,
    surface_from_quiver,
    surface_invariants,
    surfaces_isomorphic,
    swap_dissections,
    walk_of_curve,
)
from nonkissing.walks import (
    enumerate_walks,
    kn_pair,
    peak_walk,
    primitive_cycles,
    straight_walks,
)

from oracles import all_roots_surface_key, union_find_corner_classes
from pyrun import run_python

# (quiver, b, punctures, genus), straight from the worked example families
INVARIANT_TABLE = [
    (a_path(2), 1, 0, 0),
    (a_path(5), 1, 0, 0),
    (cambrian("FRRF"), 1, 0, 0),
    (reversed_path(2), 1, 1, 0),
    (reversed_path(3), 1, 2, 0),
    (reversed_path(4), 1, 3, 0),
    (double_path(2), 2, 0, 0),
    (double_path(3), 1, 0, 1),
    (double_path(4), 2, 0, 1),
    (double_path(5), 1, 0, 2),
    (loop_quiver(), 1, 1, 0),
    (cycle_quiver(2), 1, 1, 0),
    (cycle_quiver(3), 1, 1, 0),
    (cycle_quiver(4), 1, 1, 0),
    (double_cycle(1), 0, 3, 0),
    (double_cycle(2), 0, 4, 0),
    (double_cycle(3), 0, 3, 1),
    (double_cycle(4), 0, 4, 1),
    (double_cycle(5), 0, 3, 2),
]


def test_invariant_table():
    for q, b, punctures, genus in INVARIANT_TABLE:
        inv = surface_invariants(surface_from_quiver(q))
        assert (inv["b"], inv["punctures"], inv["genus"]) == (b, punctures, genus)


def test_reversed_path_puncture_split():
    for n in (2, 3, 4):
        inv = surface_invariants(surface_from_quiver(reversed_path(n)))
        assert inv["p"] == 0
        assert inv["p_dual"] == n - 1


def test_v_point_count_matches_straight_walks():
    quivers = list(corpus().values())
    quivers += [random_locally_gentle(random.Random(seed)) for seed in range(40)]
    for q in quivers:
        s = surface_from_quiver(q)
        # a green puncture is where an infinite straight walk spirals
        p = sum(s.is_puncture(r) for r in s.green_classes())
        assert p == len(primitive_cycles(s.bq))
        n0, n1 = len(q.vertices), len(q.arrows)
        assert len(s.green_classes()) == 2 * n0 - n1 + p == len(straight_walks(s.bq))


def test_dissection_face_count_is_b_plus_dual_punctures():
    # faces of the dissection after filling boundary circles with disks:
    # red stars touching one boundary circle merge through its filling disk
    from nonkissing.surface import start_corner

    for q in corpus().values():
        s = surface_from_quiver(q)
        inv = surface_invariants(s)
        interior = sum(1 for r in s.red_classes() if s.is_puncture(r))
        filled_faces = interior + len(s.boundary_cycles())
        assert filled_faces == inv["b"] + inv["p_dual"]
        # and every boundary circle carries at least one red point
        for cyc in s.boundary_cycles():
            kinds = {
                s.class_type[s.corner_class[start_corner(h)]] for h in cyc
            }
            assert "red" in kinds


def test_boundary_alternation():
    # along every boundary cycle, blossom points alternate with marked points
    # and the marked points alternate green/red
    for q in corpus().values():
        s = surface_from_quiver(q)
        from nonkissing.surface import start_corner

        for cyc in s.boundary_cycles():
            kinds = []
            for h in cyc:
                root = s.corner_class[start_corner(h)]
                typ = s.class_type[root]
                if typ == "black":
                    kinds.append("B")
                else:
                    kinds.append("V" if typ == "green" else "F")
            n = len(kinds)
            for i, k in enumerate(kinds):
                if k == "B":
                    assert kinds[(i + 1) % n] in ("V", "F")
                else:
                    assert kinds[(i + 1) % n] == "B"
                if k == "V":
                    assert kinds[(i + 2) % n] == "F"


def test_quiver_roundtrip_on_corpus():
    for name, q in corpus().items():
        s = surface_from_quiver(q)
        assert is_isomorphic(quiver_from_surface(s, "primary"), q), name
        assert is_isomorphic(quiver_from_surface(s, "dual"), koszul_dual(q)), name


def test_swap_equals_dual_surface():
    for name, q in corpus().items():
        s = surface_from_quiver(q)
        sk = surface_from_quiver(koszul_dual(q))
        assert surfaces_isomorphic(swap_dissections(s), sk), name


def test_dual_dissection_reconstruction():
    for name, q in corpus().items():
        s = surface_from_quiver(q)
        rebuilt = dual_dissection(strip_dual(s))
        assert surfaces_isomorphic(s, rebuilt), name


def test_dual_dissection_rejects_bad_mark_counts():
    s = surface_from_quiver(a_path(2))
    view = strip_dual(s)
    zero = GreenView(view.faces, view.closed, (0,) + view.marks[1:], view.pairs)
    with pytest.raises(MissingDualPoint):
        dual_dissection(zero)
    two = GreenView(view.faces, view.closed, (2,) + view.marks[1:], view.pairs)
    with pytest.raises(MultipleDualPoints):
        dual_dissection(two)


def test_triangle_face_reconstruction_detail():
    # a face with a boundary red point: the rebuilt star joins it to every
    # green side of the face, one quad per corner unit
    s = surface_from_quiver(a_path(2))
    view = strip_dual(s)
    rebuilt = dual_dissection(view)
    assert len(rebuilt.quads) == len(s.quads)
    assert sorted(map(len, rebuilt.class_corners.values())) == sorted(
        map(len, s.class_corners.values())
    )


CURVE_INSTANCES = [a_path(2), a_path(3), loop_quiver(), cycle_quiver(2), reversed_path(2)]


def test_curve_walk_bijection():
    for q in CURVE_INSTANCES:
        bq = blossom(q)
        walks, complete = enumerate_walks(bq)
        assert complete
        for w in walks:
            assert walk_of_curve(bq, curve_of_walk(bq, w)) == w


def test_crossing_count_equals_kissing_number():
    for q in CURVE_INSTANCES:
        bq = blossom(q)
        walks, _ = enumerate_walks(bq)
        curves = {w: curve_of_walk(bq, w) for w in walks}
        for w1, w2 in itertools.product(walks, repeat=2):
            assert crossing_count(bq, curves[w1], curves[w2]) == kn_pair(bq, w1, w2)


def test_straight_curves_never_cross():
    for q in CURVE_INSTANCES:
        bq = blossom(q)
        for w1 in straight_walks(bq):
            for w2 in straight_walks(bq):
                c1, c2 = curve_of_walk(bq, w1), curve_of_walk(bq, w2)
                assert crossing_count(bq, c1, c2) == 0


def test_straight_curve_crosses_the_full_lozenge_chain():
    bq = blossom(a_path(2))
    for w in straight_walks(bq):
        c = curve_of_walk(bq, w)
        inner = [a for a, _ in w.body if not bq.is_blossom_arrow(a)]
        expected = []
        if inner:
            expected = [bq.quiver.src[inner[0]]] + [bq.quiver.tgt[a] for a in inner]
        else:
            expected = [c.crossings[0]]
        assert list(c.crossings) == expected


def test_peak_curve_is_the_rotated_edge():
    # curve(a_peak) is edge(a) with its endpoints slid to the next blossom
    # point: it crosses edge(a) itself plus, at each boundary endpoint of
    # edge(a), the edges strictly after edge(a) in the rotation around that
    # endpoint; a puncture endpoint turns into a spiral marker instead
    from nonkissing.surface import prev_face

    for q in CURVE_INSTANCES:
        bq = blossom(q)
        s = surface_from_quiver(q)
        for v in q.vertices:
            pw = peak_walk(bq, v)
            curve = curve_of_walk(bq, pw)
            crossings = set(curve.crossings)
            expected = {v}
            spiral_cycles = set()
            for beta in bq.quiver.arrows_out[v]:
                root = s.corner_class[(beta, "v")]
                if s.is_puncture(root):
                    # the slid endpoint spirals around the puncture
                    chain = tuple(sorted(a for a, _ in s.class_corners[root]))
                    spiral_cycles.add(frozenset(chain))
                    continue
                # rotation order around the endpoint follows the green chain
                side = (beta, "gs")
                while True:
                    side = s.twin[prev_face(side)]
                    if side is None:
                        break
                    black = s.corner_class[(side[0], "s")]
                    if s.black_kind[black] == "middle":
                        expected.add(s.black_name[black])
            assert crossings == expected, (v, crossings, expected)
            markers = {
                frozenset(m[1])
                for m in (curve.left, curve.right)
                if m[0] == "P"
            }
            assert markers == spiral_cycles, (v, markers, spiral_cycles)


def test_crossing_rejects_different_surfaces():
    bq1 = blossom(a_path(2))
    bq2 = blossom(a_path(3))
    c1 = curve_of_walk(bq1, peak_walk(bq1, "v1"))
    c2 = curve_of_walk(bq2, peak_walk(bq2, "v1"))
    with pytest.raises(DifferentSurface):
        crossing_count(bq1, c1, c2)


def test_unreduced_crossing_rejected():
    bq = blossom(a_path(3))
    pw = peak_walk(bq, "v2")
    c = curve_of_walk(bq, pw)
    bad = CrossingSequence(
        quiver_key=c.quiver_key,
        left=c.left,
        crossings=c.crossings,
        angles=(("a1", 1), ("a1", -1)),
        right=c.right,
    )
    with pytest.raises(NotReducedCrossing):
        walk_of_curve(bq, bad)


BAD_CURVES = """
import dataclasses
from nonkissing.errors import NotMaximal, NoUniqueWalk
from nonkissing.families import a_path
from nonkissing.quiver import blossom
from nonkissing.surface import curve_of_walk, walk_of_curve
from nonkissing.walks import Walk, peak_walk

bq = blossom(a_path(3))
w = peak_walk(bq, "v2")
# walks built past canonicalize, each with one finite end short of its leaf
for short in (Walk((), w.body[1:], ()), Walk((), w.body[:-1], ())):
    try:
        curve_of_walk(bq, short)
    except NotMaximal:
        print("NotMaximal")
# the two leaves of the curve with no crossing between them spell no walk
try:
    walk_of_curve(bq, dataclasses.replace(curve_of_walk(bq, w), angles=()))
except NoUniqueWalk:
    print("NoUniqueWalk")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_bad_curves_raise_typed_errors(flags):
    assert run_python(BAD_CURVES, *flags) == ["NotMaximal", "NotMaximal", "NoUniqueWalk"]


def test_library_has_no_assert_statements():
    # invariants raise typed errors from errors.py, which python -O keeps
    for path in sorted(Path(nonkissing.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


def test_surface_dump_stable():
    s = surface_from_quiver(loop_quiver())
    d1 = surface_dump(s)
    d2 = surface_dump(surface_from_quiver(loop_quiver()))
    assert d1 == d2
    assert d1["punctures"]


def test_euler_cross_check_runs_everywhere():
    for q in corpus().values():
        inv = surface_invariants(surface_from_quiver(q))
        assert inv["euler"] == 2 - 2 * inv["genus"] - inv["b"]


def _oracle_surfaces():
    """Surfaces with closed (puncture) and chain (boundary) rotation orbits."""
    quivers = [random_locally_gentle(random.Random(seed)) for seed in range(30)]
    quivers += [koszul_dual(q) for q in quivers]
    quivers += [double_cycle(n) for n in range(1, 17)]
    quivers += [double_path(n) for n in range(2, 17)]
    for q in quivers:
        s = surface_from_quiver(q)
        yield s
        yield swap_dissections(s)
        yield dual_dissection(strip_dual(s))


def _corner_classes(s):
    assert len(s.corner_class) == 4 * len(s.quads)
    for c, root in s.corner_class.items():
        assert c in s.class_corners[root]
    return {
        frozenset(corners): (
            s.class_type[root],
            s.black_kind.get(root),
            root in s.boundary_classes,
        )
        for root, corners in s.class_corners.items()
    }


def _assert_orbits_run_forward(s):
    for root, orbit in s.class_orbit.items():
        assert set(map(start_corner, orbit)) == s.class_corners[root]
        for h, nxt in zip(orbit, orbit[1:]):
            assert next_face(s.twin[h]) == nxt
        if root in s.boundary_classes:
            # a chain runs from its head to the side it leaves the point by
            assert s.rotate(orbit[0]) is None and s.twin[orbit[-1]] is None
        else:
            assert next_face(s.twin[orbit[-1]]) == orbit[0]


def test_rotation_orbits_match_union_find_oracle():
    closed = chains = 0
    for s in _oracle_surfaces():
        _assert_orbits_run_forward(s)
        classes = _corner_classes(s)
        assert classes == union_find_corner_classes(s)
        chains += sum(on_boundary for _, _, on_boundary in classes.values())
        closed += sum(not on_boundary for _, _, on_boundary in classes.values())
    assert closed and chains


def test_boundary_cycles_join_each_boundary_side_to_the_next():
    # one boundary side ends and one starts at each boundary point
    for s in _oracle_surfaces():
        cycles = s.boundary_cycles()
        sides = [h for cyc in cycles for h in cyc]
        assert sorted(sides) == sorted(h for h in s.halfedges if s.twin[h] is None)
        for cyc in cycles:
            for h, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                end = s.corner_class[start_corner(next_face(h))]
                assert end == s.corner_class[start_corner(nxt)]


def test_strip_dual_reads_the_same_faces_whatever_the_quad_order():
    # a closed face is read ending at its least quad, not at its class root
    closed = 0
    for q in corpus().values():
        s = surface_from_quiver(q)
        view = strip_dual(s)
        again = strip_dual(SurfaceModel(s.quads[::-1], s.twin))
        assert sorted(zip(view.faces, view.closed)) == sorted(zip(again.faces, again.closed))
        closed += sum(view.closed)
    assert closed


def test_pruned_key_matches_all_roots_oracle():
    for s in _oracle_surfaces():
        assert s.canonical_key() == all_roots_surface_key(s)


def test_unnamed_black_points_are_numbered_in_corner_order():
    def build():
        return dual_dissection(strip_dual(surface_from_quiver(double_path(4))))

    s = build()
    position = {start_corner(h): i for i, h in enumerate(s.halfedges)}
    blacks = [r for r in s.class_corners if s.class_type[r] == "black"]
    assert blacks == sorted(blacks, key=position.get)
    assert [s.black_name[r] for r in blacks] == [f"x{i}" for i in range(len(blacks))]
    assert build().black_name == s.black_name


def test_constructor_rejects_every_illegal_gluing():
    # only rt-rs and gt-gs gluings join corners of one type, so
    # quiver_from_surface never meets a relation side glued to a non-relation side
    legal = {("rt", "rs"), ("rs", "rt"), ("gt", "gs"), ("gs", "gt")}
    for k, j in itertools.product(KINDS, repeat=2):
        # two quads make no degree-4 middle point, so a legal gluing fails
        # too, but only on its black point count
        match = "dissections not dual" if (k, j) in legal else None
        with pytest.raises(NotCellular, match=match):
            SurfaceModel(["A", "B"], {("A", k): ("B", j), ("B", j): ("A", k)})


def test_matching_check_is_a_typed_error(monkeypatch):
    # a complete blossoming always leads a leaf-started path to a leaf; the
    # check must still raise, not vanish under python -O
    s = surface_from_quiver(a_path(2))
    monkeypatch.setattr(nonkissing.walks, "straight_next", lambda bq, a: None)
    with pytest.raises(InconsistentEuler, match="straight path from leaf '.+' stops inside"):
        surface_invariants(s)
