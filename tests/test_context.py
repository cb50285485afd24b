"""The per-quiver context: interned walks, memo tables and stored facet data."""

import sys

import pytest

from nonkissing import cli, facets as facets_module, quiver as quiver_module
from nonkissing.errors import FacetError, FlipFailed
from nonkissing.facets import (
    Facet,
    QuiverContext,
    distinguished_data,
    enumerate_facets,
    flip,
    peak_facet,
    verify_distinguished_census,
    verify_purity,
    verify_thinness,
    walks_through_cycles_check,
)
from nonkissing.families import a_path, corpus, double_cycle
from nonkissing.geometry import (
    build_associahedron,
    build_fan,
    graph_matrices,
    sign_coherence_report,
)
from nonkissing.quiver import blossom, make_quiver
from nonkissing.walks import kiss_count

from oracles import walk_letter
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


def test_kernels_run_once_per_distinct_argument(monkeypatch):
    calls = {"kiss_count": 0, "countercurrent_less": 0}
    for name in calls:
        kernel = getattr(facets_module, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(facets_module, name, counted)
    g = enumerate_facets(a_path(6))
    assert len(g.facets) == 429 and g.closed
    assert calls["kiss_count"] <= 1080
    assert calls["countercurrent_less"] <= 419


def test_each_edge_is_flipped_once(monkeypatch):
    calls = {"_flip": 0, "_construct": 0}
    for name in calls:
        step = getattr(facets_module, name)

        def counted(*args, _step=step, _name=name):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(facets_module, name, counted)
    g = enumerate_facets(a_path(6))
    assert len(g.facets) == 429 and g.closed
    assert calls["_flip"] == len(g.edges) // 2 <= 1287
    assert calls["_construct"] <= 252


def test_thinness_report_sees_a_broken_involution(monkeypatch):
    g = enumerate_facets(a_path(3))
    assert verify_thinness(g) == []
    ctx, edge = g.ctx, g.edges[0]
    walk_in = ctx.keys.index(edge.walk_in)
    target = g.ids[edge.target] + g.straights
    flip_ids = facets_module._flip

    def broken(ctx, ids, data, wi, check):
        if ids == target and wi == walk_in:
            return wi, "decreasing"  # the flipped walk stays
        return flip_ids(ctx, ids, data, wi, check)

    monkeypatch.setattr(facets_module, "_flip", broken)
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

facets._flip = fake_flip
facets._data = lambda ctx, ids: {}
try:
    facets.enumerate_facets(a_path(2))
except FlipFailed as exc:
    print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_conflicting_reverse_flip_raises(flags):
    assert run_python(CONFLICT, *flags) == ["FlipFailed"]


def _stored_data_graphs():
    graphs = [enumerate_facets(corpus()[name]) for name in FINITE]
    capped = enumerate_facets(double_cycle(2), max_facets=40)
    assert not capped.closed
    return graphs + [capped]


def test_stored_data_matches_fresh_distinguished_data():
    for g in _stored_data_graphs():
        assert len(g.data) == len(g.facets)
        for i, f in enumerate(g.facets):
            stored = {a: (g.ctx.walks[w], p) for a, (w, p) in g.data[i].items()}
            assert stored == distinguished_data(g.ctx.bq, f)


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
from nonkissing.facets import Facet, flip, peak_facet
from nonkissing.families import a_path
from nonkissing.quiver import blossom

bq = blossom(a_path(3))
facet = peak_facet(bq)
bad = Facet(facet.bending, ())
try:
    flip(bq, bad, bad.bending[0])
except FacetError as exc:
    print(type(exc).__name__)
"""


def test_corrupted_facet_raises_facet_error():
    bq = blossom(a_path(3))
    facet = peak_facet(bq)
    bad = Facet(facet.bending, ())
    with pytest.raises(FlipFailed):
        flip(bq, bad, bad.bending[0])
    assert issubclass(FlipFailed, FacetError)


def test_corrupted_facet_raises_facet_error_under_optimize():
    assert run_python(CORRUPT, "-O") == ["FlipFailed"]
