"""The per-quiver context: interned walks, memo tables and stored facet data."""

import itertools
import random
import sys

import pytest

from nonkissing import cli, facets as facets_module, quiver as quiver_module
from nonkissing import walks as walks_module
from nonkissing.errors import FacetError, FlipFailed
from nonkissing.facets import (
    Facet,
    QuiverContext,
    countercurrent_less,
    enumerate_facets,
    flip,
    peak_facet,
    verify_distinguished_census,
    verify_purity,
    verify_thinness,
    walks_through_cycles_check,
)
from nonkissing.families import (
    a_path,
    corpus,
    double_cycle,
    double_path,
    random_locally_gentle,
)
from nonkissing.geometry import (
    build_associahedron,
    build_fan,
    graph_matrices,
    sign_coherence_report,
)
from nonkissing.quiver import blossom, make_quiver
from nonkissing.walks import Walk, kiss_count

from oracles import (
    facet_distinguished_data,
    flip_facet,
    reference_countercurrent_less,
    walk_letter,
)
from pyrun import run_python

FINITE = (
    "a2", "a3", "cambrian-FRF", "loop", "cycle2", "cycle3", "reversedpath2",
    "reversedpath3",
)


def test_contexts_keep_their_own_kiss_numbers():
    # the same arrow ids, so the same walk ids could index both memos
    q1 = a_path(3)
    q2 = make_quiver(q1.vertices, q1.arrows, [("a1", "a2")])
    g1, g2 = enumerate_facets(q1), enumerate_facets(q2)
    ctx1, ctx2 = g1.ctx, g2.ctx
    for ctx in (ctx1, ctx2, ctx1):
        n = len(ctx.walks)
        for i in range(n):
            for j in range(n):
                assert ctx.kn(i, j) == kiss_count(ctx.bq, ctx.walks[i], ctx.walks[j])
    shared = min(len(ctx1.walks), len(ctx2.walks))
    assert any(
        ctx1.kn(i, j) != ctx2.kn(i, j) for i in range(shared) for j in range(shared)
    ), "a memo shared by id would go unnoticed here"


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Count the calls of the named functions of the facets module."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        kernel = getattr(facets_module, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(facets_module, name, counted)
    return calls


def _record_windows(monkeypatch) -> list[Walk]:
    """The walk of every window built (each calls `walks._unrolled` once)."""
    built = []
    unrolled = walks_module._unrolled

    def recorded(w, n):
        built.append(w)
        return unrolled(w, n)

    monkeypatch.setattr(walks_module, "_unrolled", recorded)
    return built


def test_kernels_run_once_per_distinct_argument(monkeypatch):
    calls = _count_calls(monkeypatch, "kiss_count", "countercurrent_less", "distinguished_data")
    windows = _record_windows(monkeypatch)
    g = enumerate_facets(a_path(6))
    assert len(g.facets) == 429 and g.closed
    assert calls["kiss_count"] <= 1080
    assert calls["countercurrent_less"] <= 410
    # only the start facet's data is computed afresh; the others' are derived
    assert calls["distinguished_data"] == 1
    # type A walks have no tails: one window per walk serves every length
    assert len(windows) == len(set(windows)) <= len(g.ctx.walks)


def test_repeated_cli_runs_build_the_same_windows(monkeypatch, capsys):
    # the tables live on the walks of one command, so a second run in the
    # same process unrolls as much as the first
    windows = _record_windows(monkeypatch)
    built = []
    for _ in range(2):
        windows.clear()
        assert cli.main(["facets", "family:apath:4"]) == 0
        built.append(len(windows))
    capsys.readouterr()
    assert built[0] == built[1] > 0


def _fresh(w: Walk) -> Walk:
    """A copy of w with an empty window table."""
    return Walk(w.ltail, w.body, w.rtail)


def test_warm_window_tables_give_the_fresh_kernel_results():
    graphs = [enumerate_facets(corpus()[name]) for name in FINITE]
    graphs += [
        enumerate_facets(double_cycle(2), max_facets=40),
        enumerate_facets(double_path(3), max_facets=40),
    ]
    pairs = marks = 0
    for g in graphs:
        bq, walks = g.ctx.bq, g.ctx.walks
        # the interned walks' tables were filled by the BFS
        for w1, w2 in itertools.product(walks, repeat=2):
            assert kiss_count(bq, w1, w2) == kiss_count(bq, _fresh(w1), _fresh(w2))
            pairs += 1
        for (m, n), less in g.ctx._less.items():
            (wm, pm), (wn, pn) = (walks[m[0]], m[1]), (walks[n[0]], n[1])
            arrow = walk_letter(wm, pm)[0]
            assert countercurrent_less(bq, (wm, pm), (wn, pn), arrow) == less
            assert countercurrent_less(bq, (_fresh(wm), pm), (_fresh(wn), pn), arrow) == less
            marks += 1
    assert pairs == 8192 and marks > 1000


def test_capped_graph_derives_its_data(monkeypatch):
    calls = _count_calls(monkeypatch, "countercurrent_less", "distinguished_data")
    g = enumerate_facets(double_cycle(2), max_facets=40)
    assert len(g.facets) == 40 and not g.closed
    assert calls["countercurrent_less"] <= 1042
    assert calls["distinguished_data"] == 1


def test_each_edge_is_flipped_once(monkeypatch):
    calls = {"flip": 0, "_construct": 0}
    for name in calls:
        step = getattr(facets_module, name)

        def counted(*args, _step=step, _name=name):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(facets_module, name, counted)
    g = enumerate_facets(a_path(6))
    assert len(g.facets) == 429 and g.closed
    assert calls["flip"] == len(g.edges) // 2 <= 1287
    assert calls["_construct"] <= 252


def test_thinness_report_sees_a_broken_involution(monkeypatch):
    g = enumerate_facets(a_path(3))
    assert verify_thinness(g) == []
    ctx, edge = g.ctx, g.edges[0]
    walk_in = ctx.keys.index(edge.walk_in)
    target = g.ids[edge.target] + g.straights

    def broken(ctx, ids, data, wi, check):
        if ids == target and wi == walk_in:
            return wi, "decreasing"  # the flipped walk stays
        return flip(ctx, ids, data, wi, check)

    monkeypatch.setattr(facets_module, "flip", broken)
    report = verify_thinness(g)
    assert f"facet {edge.source}: flip at {edge.walk_out} is not an involution" in report


# a fake complex in which the ridge {u} lies in three facets: the peak {p, q}
# flips both walks to u, and both {q, u} and {p, u} then flip to {u, t}, so
# two different reverse flips are recorded for {u, t}
CONFLICT = """
from nonkissing import facets
from nonkissing.errors import FlipFailed
from nonkissing.families import a_path
from nonkissing.walks import enumerate_walks

table = {}

def fake_flip(ctx, ids, data, wi, check):
    bending = frozenset(i for i in ids if ctx.bending[i])
    if not table:
        p, q = sorted(bending)
        walks, _ = enumerate_walks(ctx.bq)
        u, t = [i for i in map(ctx.intern, walks) if ctx.bending[i] and i not in bending][:2]
        table.update({
            (frozenset({p, q}), p): u, (frozenset({p, q}), q): u,
            (frozenset({q, u}), q): t, (frozenset({p, u}), p): t,
        })
    return table[bending, wi], "increasing"

facets.flip = fake_flip
facets.distinguished_data = lambda ctx, ids: {}
try:
    facets.enumerate_facets(a_path(2))
except FlipFailed as exc:
    print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_conflicting_reverse_flip_raises(flags):
    assert run_python(CONFLICT, *flags) == ["FlipFailed"]


@pytest.fixture(scope="module")
def derived_data_graphs():
    """Closed graphs of the finite corpus and apath:1..6, capped infinite-type
    graphs and 30 random seeds: every facet but the first has derived data."""
    graphs = [enumerate_facets(corpus()[name]) for name in FINITE]
    graphs += [enumerate_facets(a_path(n)) for n in range(1, 7)]
    capped = [
        enumerate_facets(q, max_facets=cap)
        for q, cap in (
            (double_cycle(2), 40), (double_cycle(2), 160),
            (double_path(3), 40), (double_path(4), 20),
        )
    ]
    assert not any(g.closed for g in capped)
    randoms = [
        enumerate_facets(random_locally_gentle(random.Random(seed), 6), max_facets=40)
        for seed in range(30)
    ]
    return graphs + capped + randoms


def test_stored_data_matches_fresh_distinguished_data(derived_data_graphs):
    for g in derived_data_graphs:
        assert len(g.data) == len(g.facets)
        for i, f in enumerate(g.facets):
            stored = {a: (g.ctx.walks[w], p) for a, (w, p) in g.data[i].items()}
            assert stored == facet_distinguished_data(g.ctx.bq, f)


def test_flip_partners_are_the_maxima_over_the_other_walks(
    monkeypatch, derived_data_graphs
):
    # `flip` reads mu and nu off the facet's data where that data's mark is
    # not on the flipped walk; the oracle order must put each of them above
    # every other mark at its partner arrow on the facet's other walks
    flips, seen = 0, []
    for g in derived_data_graphs:
        ctx = g.ctx
        monkeypatch.setattr(ctx, "build", lambda wi, ds, mu, nu: seen.append((mu, nu)))
        for i, bending in enumerate(g.ids):
            ids = bending + g.straights
            for wi in bending:
                _, alpha_p, beta_p = ctx.substring(wi, g.data[i])
                flip(ctx, ids, g.data[i], wi, False)
                for (x, p), arrow in zip(seen.pop(), (alpha_p, beta_p)):
                    best = (ctx.walks[x], p)
                    assert x in ids and x != wi and p in ctx.marks[x][arrow]
                    for other in ids:
                        for q in ctx.marks[other].get(arrow, ()):
                            if other != wi and (other, q) != (x, p):
                                mark = (ctx.walks[other], q)
                                assert reference_countercurrent_less(
                                    ctx.bq, mark, best, arrow
                                )
                flips += 1
    assert flips > 3000


def test_interned_walk_facts():
    g = enumerate_facets(a_path(3))
    ctx = g.ctx
    for i, w in enumerate(ctx.walks):
        assert ctx.intern(w) == i
        assert ctx.keys[i] == w.serialize()
        # marked: the body and the first period of each tail, read letter by letter
        marked = range(
            0 if w.is_infinite_straight else -len(w.ltail), len(w.body) + len(w.rtail)
        )
        want: dict[str, list[int]] = {}
        for p in marked:
            want.setdefault(walk_letter(w, p)[0], []).append(p)
        assert ctx.marks[i] == {a: tuple(ps) for a, ps in want.items()}
    assert [f.key for f in g.facets] == [
        tuple(ctx.keys[w] for w in ids) for ids in g.ids
    ]


def _record_blossoms(monkeypatch):
    """Events ('blossom' | 'context', quiver) in call order."""
    events = []
    original = quiver_module.blossom

    def counting(q):
        events.append(("blossom", q))
        return original(q)

    for name, mod in list(sys.modules.items()):
        if name.startswith("nonkissing"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    init = QuiverContext.__init__

    def recording(self, bq):
        init(self, bq)
        events.append(("context", bq.base))

    monkeypatch.setattr(QuiverContext, "__init__", recording)
    return events


def _reblossomed(events):
    """Quivers blossomed again after their context was built."""
    with_context = []
    out = []
    for kind, q in events:
        if kind == "context":
            with_context.append(q)
        elif q in with_context:
            out.append(q)
    return out


@pytest.mark.parametrize("command", ["facets", "flipgraph", "vectors", "fan", "polytope"])
def test_cli_blossoms_each_quiver_once(monkeypatch, capsys, command):
    events = _record_blossoms(monkeypatch)
    for spec in ("family:apath:3", "family:cycle:2"):
        events.clear()
        assert cli.main([command, spec]) == 0
        assert [kind for kind, _ in events] == ["blossom", "context"], spec
    capsys.readouterr()


def test_selfcheck_blossoms_no_quiver_with_a_context(monkeypatch, capsys):
    events = _record_blossoms(monkeypatch)
    assert cli.main(["selfcheck"]) == 0
    capsys.readouterr()
    assert any(kind == "context" for kind, _ in events)
    assert _reblossomed(events) == []


def test_reports_read_the_context(monkeypatch):
    q = a_path(3)
    g = enumerate_facets(q)
    events = _record_blossoms(monkeypatch)
    assert verify_purity(g) == verify_thinness(g) == []
    assert verify_distinguished_census(g) == walks_through_cycles_check(g) == []
    assert sign_coherence_report(g, graph_matrices(g)) == []
    assert build_fan(g).report == ()
    build_associahedron(g)
    assert events == []


# a facet whose straight walks were removed: the flip finds no walk at a
# partner arrow of the flipped walk's distinguished substring
CORRUPT = """
from nonkissing.errors import FacetError
from nonkissing.facets import Facet, peak_facet
from nonkissing.families import a_path
from nonkissing.quiver import blossom

from oracles import flip_facet

bq = blossom(a_path(3))
facet = peak_facet(bq)
bad = Facet(facet.bending, ())
try:
    flip_facet(bq, bad, bad.bending[0])
except FacetError as exc:
    print(type(exc).__name__)
"""


def test_corrupted_facet_raises_facet_error():
    bq = blossom(a_path(3))
    facet = peak_facet(bq)
    bad = Facet(facet.bending, ())
    with pytest.raises(FlipFailed):
        flip_facet(bq, bad, bad.bending[0])
    assert issubclass(FlipFailed, FacetError)


def test_corrupted_facet_raises_facet_error_under_optimize():
    assert run_python(CORRUPT, "-O") == ["FlipFailed"]
