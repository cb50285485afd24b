"""Countercurrent order, distinguished data, flips, facet enumeration."""

import itertools
import random

import networkx as nx
import pytest

from nonkissing import facets as facets_module
from nonkissing.errors import (
    FlipCheckFailed,
    KissingPair,
    NotBending,
    NotMarked,
    NotMember,
    SameMarkedWalk,
)
from nonkissing.facets import (
    Facet,
    QuiverContext,
    _data,
    _exchange,
    _flip,
    brute_force_facets,
    countercurrent_less,
    deep_facet,
    distinguished_data,
    enumerate_facets,
    flip,
    maximal_cliques,
    peak_facet,
    verify_distinguished_census,
    verify_purity,
    verify_thinness,
    walks_through_cycles_check,
)
from nonkissing.families import (
    a_path,
    corpus,
    cycle_quiver,
    double_cycle,
    double_path,
    loop_quiver,
    random_locally_gentle,
    reversed_path,
)
from nonkissing.quiver import blossom
from nonkissing.walks import (
    deep_walk,
    enumerate_walks,
    peak_walk,
    primitive_cycles,
    walk_uses_cycle,
)

from oracles import reference_countercurrent_less
from pyrun import run_python

# frozen facet counts: A2 and A3 as stated by the acceptance criteria, the
# rest computed by the clique oracle and frozen
FACET_COUNTS = {
    "a2": (a_path(2), 5),
    "a3": (a_path(3), 14),
    "loop": (loop_quiver(), 2),
    "rp2": (reversed_path(2), 6),
    "rp3": (reversed_path(3), 24),
    "cycle2": (cycle_quiver(2), 6),
    "cycle3": (cycle_quiver(3), 20),
}


@pytest.fixture(scope="module")
def graphs():
    return {
        name: (blossom(q), enumerate_facets(q))
        for name, (q, _) in FACET_COUNTS.items()
    }


def test_facet_counts_and_oracle_equivalence(graphs):
    for name, (q, count) in FACET_COUNTS.items():
        bq, g = graphs[name]
        assert g.closed, name
        assert len(g.facets) == count, name
        oracle = brute_force_facets(q)
        assert sorted(f.key for f in g.facets) == sorted(f.key for f in oracle), name


def _marked_walks(g, i, arrow):
    """Every marked occurrence of the arrow in facet i of g, as (walk, position)."""
    ctx = g.ctx
    return [
        (ctx.walks[w], p)
        for w in g.ids[i] + g.straights
        for p in ctx.marks[w].get(arrow, ())
    ]


def test_countercurrent_is_a_strict_total_order(graphs):
    for name, (bq, g) in graphs.items():
        for i in range(len(g.ids)):
            for arrow in bq.quiver.arrow_ids:
                marks = _marked_walks(g, i, arrow)
                for m, n in itertools.permutations(marks, 2):
                    less = countercurrent_less(bq, m, n, arrow)
                    greater = countercurrent_less(bq, n, m, arrow)
                    assert less != greater
                for m, n, o in itertools.permutations(marks, 3):
                    if countercurrent_less(bq, m, n, arrow) and countercurrent_less(
                        bq, n, o, arrow
                    ):
                        assert countercurrent_less(bq, m, o, arrow)


def _verdict(less, *args):
    try:
        return less(*args)
    except (SameMarkedWalk, KissingPair) as exc:
        return type(exc)


def test_countercurrent_matches_the_letter_at_a_time_reference():
    # every ordered pair of marks at every arrow in every facet, with the
    # walk each flip brings in, which kisses the walk it replaces
    finite = ("a2", "a3", "cambrian-FRF", "loop", "cycle2", "cycle3",
              "reversedpath2", "reversedpath3")
    graphs = [enumerate_facets(corpus()[name]) for name in finite]
    graphs += [
        enumerate_facets(q, max_facets=cap)
        for q, cap in ((double_cycle(2), 40), (double_path(3), 40), (double_path(4), 20))
    ]
    verdicts = set()
    for g in graphs:
        ctx = g.ctx
        ids = {key: i for i, key in enumerate(ctx.keys)}
        groups = {g.ids[e.source] + g.straights + (ids[e.walk_in],) for e in g.edges}
        pairs = {
            (m, n, arrow)
            for group in groups
            for arrow in ctx.bq.quiver.arrow_ids
            for m, n in itertools.product(
                [(i, p) for i in group for p in ctx.marks[i].get(arrow, ())], repeat=2
            )
        }
        for m, n, arrow in pairs:
            args = (ctx.bq, (ctx.walks[m[0]], m[1]), (ctx.walks[n[0]], n[1]), arrow)
            want = _verdict(reference_countercurrent_less, *args)
            assert _verdict(countercurrent_less, *args) == want, (args, want)
            verdicts.add(want)
    assert verdicts == {True, False, SameMarkedWalk, KissingPair}


def test_same_marked_walk_rejected():
    bq = blossom(a_path(2))
    w = peak_walk(bq, "v1")
    arrow = w.body[1][0]
    m = (w, 1)
    with pytest.raises(SameMarkedWalk):
        countercurrent_less(bq, m, m, arrow)


def test_kissing_pair_rejected():
    bq = blossom(a_path(2))
    pw = peak_walk(bq, "v1")
    dw = deep_walk(bq, "v2")
    # both pass through the inner arrow a1 at position 1
    m = (pw, 1)
    n = (dw, 1)
    assert pw.body[1][0] == dw.body[1][0] == "a1"
    with pytest.raises(KissingPair):
        countercurrent_less(bq, m, n, "a1")


def test_unmarked_positions_rejected():
    # only the body and the first period of each tail are marked
    bq = blossom(a_path(2))
    pw, dw = peak_walk(bq, "v1"), deep_walk(bq, "v2")
    assert pw.body[0][0] != "a1" and not dw.rtail
    with pytest.raises(NotMarked, match="m is not marked at 'a1'"):
        countercurrent_less(bq, (pw, 0), (dw, 1), "a1")  # another arrow
    with pytest.raises(NotMarked):
        countercurrent_less(bq, (pw, 1), (dw, len(dw.body)), "a1")  # past the end
    bq = blossom(cycle_quiver(2))
    pw, dw = peak_walk(bq, "v1"), deep_walk(bq, "v1")
    # position -3 reads a1 in the second period of pw's left tail (a2- a1-)
    assert pw.ltail == (("a2", -1), ("a1", -1)) and dw.ltail[0][0] == "a1"
    assert _verdict(countercurrent_less, bq, (pw, -1), (dw, -2), "a1") is KissingPair
    with pytest.raises(NotMarked, match="position -3 of"):
        countercurrent_less(bq, (pw, -3), (dw, -2), "a1")


def test_distinguished_walk_singleton_and_empty():
    bq = blossom(a_path(2))
    # a blossom arrow crossed by a single walk
    only = distinguished_data(bq, Facet((peak_walk(bq, "v1"),), ()))
    assert only["v1+out1"][0] == peak_walk(bq, "v1")
    assert "v2+out1" not in only


def test_distinguished_data_matches_per_arrow_maximum(graphs):
    # one bucketing pass over the facet's letters picks the same winner as
    # the countercurrent maximum taken arrow by arrow
    for name, (bq, g) in graphs.items():
        for i in range(len(g.ids)):
            want = {}
            for arrow in bq.quiver.arrow_ids:
                marks = _marked_walks(g, i, arrow)
                top = [
                    m for m in marks
                    if all(countercurrent_less(bq, n, m, arrow) for n in marks if n != m)
                ]
                if marks:
                    ((w, p),) = top
                    want[arrow] = (g.ctx.intern(w), p)
            assert g.data[i] == want, name


def test_spiral_distinguished_at_pre_tail_occurrence(graphs):
    bq, g = graphs["loop"]
    for i, bending in enumerate(g.ids):
        wi, position = g.data[i]["a1"]
        assert wi in bending
        # the marked occurrence is the tail period adjacent to the body
        w = g.ctx.walks[wi]
        assert position in range(-len(w.ltail or ()), len(w.body) + len(w.rtail or ()))


def test_distinguished_census(graphs):
    for name, (bq, g) in graphs.items():
        assert verify_distinguished_census(g) == [], name


def test_distinguished_substring_of_peak_walk_is_top_vertex(graphs):
    bq, g = graphs["a2"]
    assert g.facets[0] == peak_facet(bq)
    for v in ("v1", "v2"):
        ds = g.ctx.substring(g.ctx.intern(peak_walk(bq, v)), g.data[0])[0]
        assert ds.on_top
        assert ds.letters == ()
        assert ds.vertices == (v,)


def test_flip_is_an_involution_with_reversed_direction(graphs):
    for name, (bq, g) in graphs.items():
        for facet in g.facets:
            for w in facet.bending:
                f2, w2, d = flip(bq, facet, w)
                f3, w3, d3 = flip(bq, f2, w2)
                assert f3.key == facet.key
                assert w3 == w
                assert {d, d3} == {"increasing", "decreasing"}


def _capped_graphs():
    """Infinite-type instances at their caps and random seeds at cap 20."""
    for q, cap in (
        (double_cycle(1), 40), (double_cycle(2), 40), (double_cycle(3), 20),
        (double_path(3), 40), (double_path(4), 20),
    ):
        yield enumerate_facets(q, max_facets=cap)
    for seed in range(60):
        yield enumerate_facets(random_locally_gentle(random.Random(seed)), max_facets=20)


def test_flip_is_an_involution_on_capped_and_random_graphs():
    # each edge's reverse flip is computed afresh from the target facet's
    # own data, not taken from the record the BFS keeps
    capped = 0
    for g in _capped_graphs():
        capped += not g.closed
        ctx = g.ctx
        by_key = {k: i for i, k in enumerate(ctx.keys)}
        for e in g.edges:
            old, new = by_key[e.walk_out], by_key[e.walk_in]
            target = g.ids[e.target]
            back, d = _flip(ctx, target + g.straights, g.data[e.target], new, True)
            assert back == old
            assert {d, e.direction} == {"increasing", "decreasing"}
            assert _exchange(ctx, target, new, back) == g.ids[e.source]
    assert capped


def test_flip_rejects_straight_walks():
    bq = blossom(a_path(2))
    facet = peak_facet(bq)
    with pytest.raises(NotBending):
        flip(bq, facet, facet.straights[0])


@pytest.mark.parametrize("wrong", [False, True])
def test_flip_check_raises_when_kissing_disagrees(monkeypatch, wrong):
    # False: the result seems not to kiss the flipped walk; True: it seems to
    # kiss every facet member.  Either way the check raises, also under -O.
    # The flip reads kiss numbers through its context, from this kernel.
    bq = blossom(a_path(2))
    facet = peak_facet(bq)
    monkeypatch.setattr(facets_module, "kiss_count", lambda bq, w1, w2: int(wrong))
    with pytest.raises(FlipCheckFailed):
        flip(bq, facet, facet.bending[0])
    ctx = QuiverContext(bq)
    ids = [ctx.intern(w) for w in facet.walks]  # the bending walks come first
    _flip(ctx, ids, _data(ctx, ids), ids[0], False)


def test_bfs_checks_the_peak_facet_pairwise(monkeypatch):
    # no flip compares two walks of the peak facet, so only the start check
    # sees a kiss between them
    bq = blossom(a_path(3))
    p1, p2 = peak_facet(bq).bending[:2]
    real = facets_module.kiss_count

    def kissing_peaks(bq, w1, w2):
        return 1 if {w1, w2} == {p1, p2} else real(bq, w1, w2)

    monkeypatch.setattr(facets_module, "kiss_count", kissing_peaks)
    with pytest.raises(FlipCheckFailed):
        enumerate_facets(a_path(3))


def test_flip_with_precomputed_data_matches(graphs):
    # the BFS flips from each facet's stored data; `flip` computes it afresh
    for name, (bq, g) in graphs.items():
        ctx = g.ctx
        for i, facet in enumerate(g.facets):
            ids = g.ids[i] + g.straights
            for w, wi in zip(facet.bending, g.ids[i]):
                new, direction = _flip(ctx, ids, g.data[i], wi, True)
                assert flip(bq, facet, w)[1:] == (ctx.walks[new], direction), name


def test_pentagon_structure(graphs):
    bq, g = graphs["a2"]
    assert len(g.facets) == 5
    neighbors = {i: set() for i in range(5)}
    for e in g.edges:
        neighbors[e.source].add(e.target)
    assert all(len(n) == 2 for n in neighbors.values())
    # the flip graph is a single 5-cycle
    seen = [0]
    cur, prev = next(iter(neighbors[0])), 0
    while cur != 0:
        seen.append(cur)
        nxt = (neighbors[cur] - {prev}).pop()
        prev, cur = cur, nxt
    assert len(seen) == 5


def test_increasing_flips_reach_deep_facet(graphs):
    bq, g = graphs["a2"]
    keys = {f.key: i for i, f in enumerate(g.facets)}
    start = keys[peak_facet(bq).key]
    target = keys[deep_facet(bq).key]
    inc = {}
    for e in g.edges:
        if e.direction == "increasing":
            inc.setdefault(e.source, set()).add(e.target)
    frontier = {start}
    reached = set(frontier)
    while frontier:
        nxt = set()
        for i in frontier:
            nxt |= inc.get(i, set()) - reached
        reached |= nxt
        frontier = nxt
    assert target in reached
    assert target not in inc  # all flips from the deep facet are decreasing


def test_direction_law_sigma_top_of_old_bottom_of_new(graphs):
    # a closed graph has an edge for every bending walk of every facet
    for name, (bq, g) in graphs.items():
        ctx = g.ctx
        ids = {key: i for i, key in enumerate(ctx.keys)}
        assert len(g.edges) == sum(map(len, g.ids)), name
        for e in g.edges:
            ds = ctx.substring(ids[e.walk_out], g.data[e.source])[0]
            assert (e.direction == "increasing") == ds.on_top
            ds2 = ctx.substring(ids[e.walk_in], g.data[e.target])[0]
            assert ds2.on_top != ds.on_top


def test_purity(graphs):
    for name, (bq, g) in graphs.items():
        assert verify_purity(g) == [], name


def test_thinness(graphs):
    for name, (bq, g) in graphs.items():
        assert verify_thinness(g) == [], name


def test_faces_are_bounded(graphs):
    for name, (bq, g) in graphs.items():
        bound = len(bq.quiver.arrows) + len(primitive_cycles(bq))
        for f in g.facets:
            assert len(f.walks) <= bound


def test_brute_force_needs_complete_universe():
    from nonkissing.errors import IncompleteUniverse
    from nonkissing.families import double_cycle

    # the one-vertex double cycle carries a band, so enumeration never closes
    with pytest.raises(IncompleteUniverse, match="the clique oracle needs the complete walk set"):
        brute_force_facets(double_cycle(1))


def test_walks_through_cycles(graphs):
    for name in ("loop", "cycle2", "cycle3"):
        bq, g = graphs[name]
        assert walks_through_cycles_check(g) == []
        for f in g.facets:
            for c in primitive_cycles(bq):
                assert any(
                    walk_uses_cycle(w, c) and not w.is_straight for w in f.bending
                )


def test_walks_through_cycles_vacuous_on_acyclic(graphs):
    bq, g = graphs["a3"]
    assert walks_through_cycles_check(g) == []


def test_flip_on_members_only():
    bq = blossom(a_path(2))
    with pytest.raises(NotMember):
        flip(bq, peak_facet(bq), deep_walk(bq, "v1"))


# an unreduced walk, facet data missing one of a bending walk's two
# distinguished arrows, and a flip of a walk outside the facet
TYPED_ERRORS = """
from nonkissing.errors import NonKissingError
from nonkissing.facets import QuiverContext, _data, _flip, flip, peak_facet
from nonkissing.families import a_path
from nonkissing.quiver import blossom
from nonkissing.walks import deep_walk, parse_walk

bq = blossom(a_path(2))
facet = peak_facet(bq)
ctx = QuiverContext(bq)
ids = [ctx.intern(x) for x in facet.walks]
w = ids[0]
data = _data(ctx, ids)
assert sum(i == w for i, _ in data.values()) == 2
del data[min(a for a, (i, _) in data.items() if i == w)]
calls = (
    lambda: parse_walk(bq, "v1+out1- a1+ a1- v1+out1+"),
    lambda: _flip(ctx, ids, data, w, True),
    lambda: flip(bq, facet, deep_walk(bq, "v1")),
)
for call in calls:
    try:
        call()
    except NonKissingError as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_typed_errors_raise_also_under_optimize(flags):
    assert run_python(TYPED_ERRORS, *flags) == ["NotReduced", "NotMaximalFacet", "NotMember"]


def test_truncated_enumeration_flags_not_closed():
    g = enumerate_facets(a_path(3), max_facets=3)
    assert not g.closed
    assert len(g.facets) == 3


def _networkx_cliques(rows):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(rows)))
    graph.add_edges_from(
        (u, v) for u, row in enumerate(rows) for v in range(u) if row >> v & 1
    )
    return {frozenset(c) for c in nx.find_cliques(graph)}


def test_maximal_cliques_match_networkx_on_the_finite_corpus():
    for name in ("a2", "a3", "cambrian-FRF", "loop", "cycle2", "cycle3",
                 "reversedpath2", "reversedpath3"):
        ctx = QuiverContext(blossom(corpus()[name]))
        walks, complete = enumerate_walks(ctx.bq)
        assert complete, name
        bend = [i for i in map(ctx.intern, walks) if ctx.bending[i] and ctx.kn(i, i) == 0]
        rows = [
            sum(1 << b for b, j in enumerate(bend) if j != i and not ctx.kissing(i, j))
            for i in bend
        ]
        got = maximal_cliques(rows)
        assert len(got) == len({frozenset(c) for c in got}), name
        assert {frozenset(c) for c in got} == _networkx_cliques(rows), name


def test_maximal_cliques_match_networkx_on_random_graphs():
    rng = random.Random(2018)
    for _ in range(200):
        n = rng.randint(1, 12)
        p = rng.random()
        rows = [0] * n
        for u in range(n):
            for v in range(u):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        assert {frozenset(c) for c in maximal_cliques(rows)} == _networkx_cliques(rows)
