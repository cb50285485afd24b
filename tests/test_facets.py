"""Countercurrent order, distinguished data, flips, facet enumeration."""

import itertools
import random

import networkx as nx
import pytest

from nonkissing import facets as facets_module
from nonkissing.errors import FlipCheckFailed, KissingPair, NotBending, SameMarkedWalk
from nonkissing.facets import (
    MarkedWalk,
    QuiverContext,
    brute_force_facets,
    countercurrent_less,
    deep_facet,
    distinguished_arrows,
    distinguished_data,
    distinguished_substring,
    distinguished_walk,
    enumerate_facets,
    flip,
    mark_positions,
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
    reversed_path,
)
from nonkissing.quiver import blossom
from nonkissing.walks import (
    deep_walk,
    enumerate_walks,
    is_bending,
    peak_walk,
    primitive_cycles,
    walk_uses_cycle,
)

from oracles import reference_countercurrent_less

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


def test_countercurrent_is_a_strict_total_order(graphs):
    for name, (bq, g) in graphs.items():
        for facet in g.facets:
            for arrow in bq.quiver.arrow_ids:
                marks = [
                    MarkedWalk(w, p)
                    for w in facet.walks
                    for p in mark_positions(w, arrow)
                ]
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
            args = (ctx.bq, ctx.marked(m), ctx.marked(n), arrow)
            want = _verdict(reference_countercurrent_less, *args)
            assert _verdict(countercurrent_less, *args) == want, (args, want)
            verdicts.add(want)
    assert verdicts == {True, False, SameMarkedWalk, KissingPair}


def test_same_marked_walk_rejected():
    bq = blossom(a_path(2))
    w = peak_walk(bq, "v1")
    arrow = w.body[1][0]
    m = MarkedWalk(w, 1)
    with pytest.raises(SameMarkedWalk):
        countercurrent_less(bq, m, m, arrow)


def test_kissing_pair_rejected():
    bq = blossom(a_path(2))
    pw = peak_walk(bq, "v1")
    dw = deep_walk(bq, "v2")
    # both pass through the inner arrow a1 at position 1
    m = MarkedWalk(pw, 1)
    n = MarkedWalk(dw, 1)
    assert pw.body[1][0] == dw.body[1][0] == "a1"
    with pytest.raises(KissingPair):
        countercurrent_less(bq, m, n, "a1")


def test_distinguished_walk_singleton_and_empty():
    bq = blossom(a_path(2))
    facet = peak_facet(bq)
    # a blossom arrow crossed by a single facet walk
    only = distinguished_walk(bq, [peak_walk(bq, "v1")], "v1+out1")
    assert only is not None and only.walk == peak_walk(bq, "v1")
    assert distinguished_walk(bq, [peak_walk(bq, "v1")], "v2+out1") is None


def test_distinguished_data_matches_per_arrow_maximum(graphs):
    # one bucketing pass over the facet's letters picks the same winner as
    # the countercurrent maximum taken arrow by arrow
    for name, (bq, g) in graphs.items():
        for facet in g.facets:
            want = {}
            for arrow in bq.quiver.arrow_ids:
                mw = distinguished_walk(bq, facet.walks, arrow)
                if mw is not None:
                    want[arrow] = mw
            assert distinguished_data(bq, facet) == want, name


def test_spiral_distinguished_at_pre_tail_occurrence(graphs):
    bq, g = graphs["loop"]
    for facet in g.facets:
        data = distinguished_data(bq, facet)
        mw = data["a1"]
        assert mw.walk in facet.bending
        # the marked occurrence is the tail period adjacent to the body
        b = len(mw.walk.body)
        assert mw.position in range(-len(mw.walk.ltail or ()), b + len(mw.walk.rtail or ()))


def test_distinguished_census(graphs):
    for name, (bq, g) in graphs.items():
        assert verify_distinguished_census(g) == [], name


def test_distinguished_substring_of_peak_walk_is_top_vertex():
    bq = blossom(a_path(2))
    facet = peak_facet(bq)
    for v in ("v1", "v2"):
        ds = distinguished_substring(bq, facet, peak_walk(bq, v))
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
    flip(bq, facet, facet.bending[0], check=False)


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
    for name, (bq, g) in graphs.items():
        for facet in g.facets:
            data = distinguished_data(bq, facet)
            for w in facet.bending:
                assert flip(bq, facet, w, data=data) == flip(bq, facet, w), name


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
    for name, (bq, g) in graphs.items():
        for facet in g.facets:
            for w in facet.bending:
                ds = distinguished_substring(bq, facet, w)
                f2, w2, d = flip(bq, facet, w)
                assert (d == "increasing") == ds.on_top
                ds2 = distinguished_substring(bq, f2, w2)
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
    with pytest.raises(IncompleteUniverse):
        brute_force_facets(double_cycle(1), body_bound=12)


def test_walks_through_cycles(graphs):
    for name in ("loop", "cycle2", "cycle3"):
        bq, g = graphs[name]
        assert walks_through_cycles_check(g) == []
        for f in g.facets:
            for c in primitive_cycles(bq):
                assert any(
                    walk_uses_cycle(w, c) and is_bending(w) for w in f.bending
                )


def test_walks_through_cycles_vacuous_on_acyclic(graphs):
    bq, g = graphs["a3"]
    assert walks_through_cycles_check(g) == []


def test_distinguished_arrows_on_members_only(graphs):
    bq, g = graphs["a2"]
    from nonkissing.errors import NotMember

    other = deep_walk(bq, "v1")
    facet = peak_facet(bq)
    with pytest.raises(NotMember):
        distinguished_arrows(bq, facet, other)


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
