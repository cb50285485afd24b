"""Walk canonicalization, enumeration and the kissing machinery."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from nonkissing import walks as walks_module
from nonkissing.errors import (
    BoundError,
    IncompleteUniverse,
    NotCanonical,
    NotMaximal,
    NotReduced,
    ParseError,
    RelationHit,
)
from nonkissing.facets import enumerate_facets
from nonkissing.families import (
    a_path,
    cambrian,
    corpus,
    cycle_quiver,
    loop_quiver,
    parse_family,
    random_locally_gentle,
    reversed_path,
)
from nonkissing.quiver import blossom, make_quiver
from nonkissing.walks import (
    Walk,
    _directed_canonical,
    _serialize_form,
    _strip_minimal,
    canonicalize,
    corner_profile,
    deep_walk,
    enumerate_walks,
    finite_straight_walks,
    has_band,
    infinite_straight_walks,
    kiss_count,
    kn_pair,
    pair_ok,
    peak_walk,
    primitive_cycles,
    rev_word,
    serialize_letter,
    straight_walks,
    tail_cycle,
    walk_universe,
)

from oracles import (
    brute_force_finite_walks,
    matched_occurrences,
    parse_walk,
    raw_window_kiss_count,
    reference_enumerate_walks,
    reference_has_band,
    reference_kiss_count,
    reference_strip_minimal,
    reference_tail_units,
    reverse_walk,
    walk_total_kissing_number,
    window_scan_kiss_count,
)
from pyrun import run_python

FINITE_CORPUS = (
    "a2", "a3", "cambrian-FRF", "loop", "cycle2", "cycle3", "reversedpath2",
    "reversedpath3",
)

COMPLETE_INSTANCES = {
    # frozen walk counts, computed by the brute-force word oracle below and
    # cross-checked against the production enumeration
    "a2": (a_path(2), 8),
    "a3": (a_path(3), 13),
    "cambrian-FR": (cambrian("FR"), 13),
    "rp2": (reversed_path(2), 8),
    "loop": (loop_quiver(), 5),
    "cycle2": (cycle_quiver(2), 11),
    "cycle3": (cycle_quiver(3), 19),
}


@pytest.fixture(scope="module")
def universes():
    out = {}
    for name, (q, count) in COMPLETE_INSTANCES.items():
        bq = blossom(q)
        walks, complete = enumerate_walks(bq)
        assert complete, name
        assert len(walks) == count, name
        out[name] = (bq, walks)
    return out


def test_finite_instances_match_brute_force_oracle():
    # tail-free instances: the raw word oracle is exhaustive and must agree
    for name in ("a2", "a3", "rp2"):
        q, count = COMPLETE_INSTANCES[name]
        bq = blossom(q)
        oracle = brute_force_finite_walks(bq)
        walks, complete = enumerate_walks(bq)
        assert complete
        got = {min(w.body, rev_word(w.body)) for w in walks}
        assert got == oracle, name
        assert len(oracle) == count


def test_oracle_contains_spirals_of_loop(universes):
    bq, walks = universes["loop"]
    spirals = [w for w in walks if (w.ltail or w.rtail) and not w.is_straight]
    assert len(spirals) == 2
    assert any(w.is_infinite_straight for w in walks)


def test_canonicalize_idempotent_and_reversal_invariant(universes):
    for bq, walks in universes.values():
        for w in walks:
            assert canonicalize(bq, w.ltail, w.body, w.rtail) == w
            assert canonicalize(bq, *reverse_walk(w)) == w


def test_undirected_identification_a2():
    bq = blossom(a_path(2))
    w = finite_straight_walks(bq)[0]
    fwd = canonicalize(bq, (), w.body, ())
    bwd = canonicalize(bq, (), rev_word(w.body), ())
    assert fwd == bwd == w


def test_serialize_parse_roundtrip(universes):
    for bq, walks in universes.values():
        for w in walks:
            assert parse_walk(bq, w.serialize()) == w


def test_relation_factor_rejected():
    bq = blossom(a_path(2))
    # v1+in1 then a1 is a completed relation pair
    with pytest.raises(RelationHit):
        canonicalize(bq, (), (("v1+in1", 1), ("a1", 1), ("v2+out2", 1)), ())


def test_not_maximal_rejected():
    bq = blossom(a_path(2))
    with pytest.raises(NotMaximal):
        canonicalize(bq, (), (("a1", 1),), ())


def _assert_single_corners(bq, walks=()):
    """Each vertex's peak and deep walk has its one corner there, and it is
    the only such walk among the given ones."""
    for v in bq.base.vertices:
        for kind, w in (("peak", peak_walk(bq, v)), ("deep", deep_walk(bq, v))):
            assert corner_profile(bq, w) == [(kind, v)]
            assert [x for x in walks if corner_profile(bq, x) == [(kind, v)]] in ([], [w])


def test_peak_and_deep_walks_have_single_corner():
    # the corpus has rays spiralling into cycles on either side of a corner
    for q in corpus().values():
        _assert_single_corners(blossom(q))


def test_loop_peak_walk_is_enumerated(universes):
    bq, walks = universes["loop"]
    assert peak_walk(bq, "v1") in walks
    assert deep_walk(bq, "v1") in walks


def test_straight_walk_counts():
    for q in corpus().values():
        bq = blossom(q)
        n0, n1 = len(q.vertices), len(q.arrows)
        assert len(finite_straight_walks(bq)) == 2 * n0 - n1
        assert len(infinite_straight_walks(bq)) == len(primitive_cycles(bq))


def test_peak_kisses_deep_everywhere():
    for q in (a_path(2), a_path(3), reversed_path(2), loop_quiver()):
        bq = blossom(q)
        for v in q.vertices:
            assert kiss_count(bq, peak_walk(bq, v), deep_walk(bq, v)) >= 1


def test_straight_walks_never_kiss(universes):
    for bq, walks in universes.values():
        for s in straight_walks(bq):
            for w in walks:
                assert kiss_count(bq, s, w) == 0
                assert kiss_count(bq, w, s) == 0


def test_kiss_count_matches_window_oracle_on_finite_pairs(universes):
    for bq, walks in universes.values():
        for w1, w2 in itertools.product(walks, repeat=2):
            if w1.ltail or w1.rtail or w2.ltail or w2.rtail:
                continue
            assert kiss_count(bq, w1, w2) == raw_window_kiss_count(bq, w1, w2)


def test_kiss_count_on_tail_pairs_bounded_and_boolean_consistent(universes):
    for bq, walks in universes.values():
        for w1, w2 in itertools.product(walks, repeat=2):
            if not (w1.ltail or w1.rtail or w2.ltail or w2.rtail):
                continue
            prod = kiss_count(bq, w1, w2)
            raw = raw_window_kiss_count(bq, w1, w2)
            assert prod <= raw
            assert (prod > 0) == (raw > 0)


def test_kiss_count_equals_window_scan_oracle(universes):
    # every ordered pair of the complete universes, tail pairs included
    for name, (bq, walks) in universes.items():
        for w1, w2 in itertools.product(walks, repeat=2):
            assert kiss_count(bq, w1, w2) == window_scan_kiss_count(bq, w1, w2), (
                name,
                w1.serialize(),
                w2.serialize(),
            )


def test_kiss_count_equals_window_scan_oracle_on_long_walks():
    # walks with body <= 8 of infinite-type families and of random quivers;
    # the oracle costs milliseconds per pair, so large sets are sampled
    rng = random.Random(7)
    quivers = [parse_family("family:doublecycle:2"), parse_family("family:doublepath:3")]
    quivers += [random_locally_gentle(random.Random(seed), 6) for seed in range(3)]
    for q in quivers:
        bq = blossom(q)
        walks, _ = enumerate_walks(bq, body_bound=8)
        pairs = list(itertools.product(walks, repeat=2))
        if len(pairs) > 120:
            pairs = rng.sample(pairs, 120)
        for w1, w2 in pairs:
            assert kiss_count(bq, w1, w2) == window_scan_kiss_count(bq, w1, w2), (
                w1.serialize(),
                w2.serialize(),
            )


def _interned_walks():
    """(name, blossoming, walks) of the contexts of capped and closed flip graphs."""
    graphs = [
        (f"{spec}-{cap}", parse_family(f"family:{spec}"), cap)
        for spec, cap in (("doublecycle:2", 80), ("doublepath:3", 40), ("doublepath:4", 20))
    ]
    graphs += [(name, corpus()[name], 10000) for name in FINITE_CORPUS]
    graphs += [
        (f"random{seed}", random_locally_gentle(random.Random(seed)), 20)
        for seed in range(30)
    ]
    for name, q, cap in graphs:
        ctx = enumerate_facets(q, cap).ctx
        yield name, ctx.bq, ctx.walks


def test_kiss_count_equals_the_whole_window_run_scan():
    # the kernel skips start pairs that cannot end a run and reads corners
    # off the bodies; the oracle tries every start pair of both windows
    sizes = {}
    for name, bq, walks in _interned_walks():
        sizes[name] = len(walks)
        for w1, w2 in itertools.product(walks, repeat=2):
            assert kiss_count(bq, w1, w2) == reference_kiss_count(bq, w1, w2), (
                name,
                w1.serialize(),
                w2.serialize(),
            )
    assert sizes["doublecycle:2-80"] == 85


def _kiss_words(bq, w1, w2):
    """(top word of w1, bottom word of w2) of every oracle-matched pair."""
    win1, win2, pairs = matched_occurrences(bq, w1, w2)
    return [
        (win1.letters[a1:b1], win2.letters[a2:b2]) for (a1, b1), (a2, b2) in pairs
    ]


def test_kiss_of_empty_common_factor():
    # the peak and the deep at v2 of A2 kiss only in the empty word at v2
    bq = blossom(a_path(2))
    pw, dw = peak_walk(bq, "v2"), deep_walk(bq, "v2")
    assert _kiss_words(bq, pw, dw) == [((), ())]
    assert kiss_count(bq, pw, dw) == 1


def test_kiss_found_only_by_the_reversed_alignment():
    bq = blossom(cycle_quiver(2))
    w1 = parse_walk(bq, "v1+in1+ a2- a1- v1+out1+")
    w2 = parse_walk(bq, "( a2+ a1+ ) | v2+in1-")
    words = _kiss_words(bq, w1, w2)
    assert words
    assert all(t != b and t == rev_word(b) for t, b in words)
    assert kiss_count(bq, w1, w2) == 1 == window_scan_kiss_count(bq, w1, w2)


def test_kiss_count_stable_under_unroll_growth(universes):
    # the oracle's windows unrolled by 2 and 4 more periods of each tail
    for bq, walks in universes.values():
        for w1, w2 in itertools.product(walks, repeat=2):
            base = kiss_count(bq, w1, w2)
            assert window_scan_kiss_count(bq, w1, w2, 2) == base
            assert window_scan_kiss_count(bq, w1, w2, 4) == base


def test_opposite_spirals_of_loop_kiss_once(universes):
    # a pumpable tail pair: a dozen raw window pairs, one kiss
    bq, walks = universes["loop"]
    pw, dw = peak_walk(bq, "v1"), deep_walk(bq, "v1")
    assert raw_window_kiss_count(bq, pw, dw) > 1
    assert kiss_count(bq, pw, dw) == 1 == window_scan_kiss_count(bq, pw, dw)
    assert kiss_count(bq, dw, pw) == 0


def test_kiss_count_rejects_a_tail_period_left_in_the_body():
    # the same walk with one right-tail period unrolled into its body: the
    # pumping rule reads the stored tail zones, so the kernels refuse it
    checked = 0
    for spec in ("family:doublecycle:1", "family:doublepath:3"):
        bq = blossom(parse_family(spec))
        bending = [w for w in enumerate_walks(bq, 6)[0] if not w.is_straight]
        for w in bending:
            if not w.rtail:
                continue
            unrolled = Walk(w.ltail, w.body + w.rtail, w.rtail)
            assert canonicalize(bq, unrolled.ltail, unrolled.body, unrolled.rtail) == w
            for other in bending[:4]:
                with pytest.raises(NotCanonical):
                    kiss_count(bq, unrolled, other)
                with pytest.raises(NotCanonical):
                    kiss_count(bq, other, unrolled)
            checked += 1
    assert checked >= 20


def test_canonical_form_is_checked_once_per_walk(monkeypatch):
    bq = blossom(parse_family("family:doublecycle:1"))
    walks = enumerate_walks(bq, 6)[0]
    checks = []
    real = walks_module._directed_canonical

    def counted(*form):
        checks.append(form)
        return real(*form)

    monkeypatch.setattr(walks_module, "_directed_canonical", counted)
    for w1, w2 in itertools.product(walks, repeat=2):
        kiss_count(bq, w1, w2)
    # straight walks kiss nothing and are never unrolled
    assert len(checks) == sum(not w.is_straight for w in walks) > 10


def test_non_self_kissing_bodies_avoid_full_cycles(universes):
    # Lemma-style check: a non-self-kissing walk carries primitive cycles
    # only inside its tails
    for name, (bq, walks) in universes.items():
        cycles = primitive_cycles(bq)
        for w in walks:
            if kiss_count(bq, w, w) > 0:
                continue
            arrows = [a for a, _ in w.body]
            for c in cycles:
                k = len(c)
                rots = {c[j:] + c[:j] for j in range(k)}
                for i in range(len(arrows) - k + 1):
                    window = tuple(arrows[i : i + k])
                    signs = {s for _, s in w.body[i : i + k]}
                    assert not (window in rots and len(signs) == 1), (
                        name,
                        w.serialize(),
                    )


def test_total_kissing_numbers_a2(universes):
    bq, walks = universes["a2"]
    for w in walks:
        kn = walk_total_kissing_number(bq, w)
        if w.is_straight:
            assert kn == 0
        else:
            assert kn == 2


def test_self_kisser_counted_twice(universes):
    bq, walks = universes["loop"]
    selfk = [w for w in walks if kiss_count(bq, w, w) > 0]
    assert len(selfk) == 1
    w = selfk[0]
    assert kn_pair(bq, w, w) == 2 * kiss_count(bq, w, w)


def test_incomplete_universe_refused():
    # the one-vertex double cycle carries a band, so enumeration never closes
    bq = blossom(parse_family("family:doublecycle:1"))
    with pytest.raises(IncompleteUniverse, match="total kissing number needs the complete walk set"):
        walk_total_kissing_number(bq, peak_walk(bq, "v1"))


def test_walk_universe_closes_at_the_blossoming_bound():
    # without a band no body is longer than the successor table, so growth
    # one letter past it finds every walk: twice that bound finds no more.
    # A band gives bodies of every length, so even bound 2 cuts growth
    specs = ["apath:6", "reversedpath:4", "cycle:3", "doublepath:3", "doublecycle:2", "cambrian:FRRF"]
    quivers = list(corpus().values()) + [parse_family(f"family:{spec}") for spec in specs]
    quivers += [random_locally_gentle(random.Random(seed), 4) for seed in range(80)]
    bands = 0
    for q in quivers:
        bq = blossom(q)
        band = has_band(bq)
        assert band == reference_has_band(bq), q
        if band:
            bands += 1
            assert enumerate_walks(bq, 2)[1] is False, q
            with pytest.raises(IncompleteUniverse, match="^test needs the complete walk set$"):
                walk_universe(bq, "test")
        else:
            bound = len(bq.successors) + 1
            walks, complete = enumerate_walks(bq, bound)
            assert complete, q
            assert enumerate_walks(bq, 2 * bound) == (walks, True), q
            assert walk_universe(bq, "test") == walks
    assert 20 <= bands <= len(quivers) - 40


def test_a_band_never_enumerates(monkeypatch):
    def refuse(*args):
        raise AssertionError("a band quiver was enumerated")

    monkeypatch.setattr(walks_module, "enumerate_walks", refuse)
    for q in (random_locally_gentle(random.Random(11), 4), parse_family("family:doublecycle:1")):
        with pytest.raises(IncompleteUniverse, match="^test needs the complete walk set$"):
            walk_universe(blossom(q), "test")


def test_winding_quiver_truncates_at_small_bound():
    q = make_quiver(
        ["v0", "v1", "v2", "v3", "v4"],
        [
            ("w", "v0", "v1"),
            ("x", "v1", "v2"),
            ("y", "v2", "v3"),
            ("z", "v3", "v1"),
            ("u", "v2", "v4"),
        ],
        [("w", "x"), ("x", "u")],
    )
    bq = blossom(q)
    _, complete = enumerate_walks(bq, body_bound=3)
    assert not complete
    walks, complete_large = enumerate_walks(bq, body_bound=40)
    assert complete_large
    assert any(w.ltail or w.rtail for w in walks)


# caller errors must stay typed errors under python -O, where asserts vanish
BAD_ARGUMENTS = """
from nonkissing.errors import NonKissingError
from nonkissing.families import cycle_quiver
from nonkissing.quiver import blossom
from nonkissing.walks import deep_walk, enumerate_walks, peak_walk

bq = blossom(cycle_quiver(1))
leaf = min(bq.blossom_vertices)
calls = (
    lambda: enumerate_walks(bq, 0),
    lambda: peak_walk(bq, leaf),
    lambda: deep_walk(bq, leaf),
    lambda: peak_walk(bq, "nosuch"),
)
for call in calls:
    try:
        call()
        print("returned")
    except NonKissingError as exc:
        print(type(exc).__name__)
"""


def test_bad_walk_arguments_raise_typed_errors():
    bq = blossom(cycle_quiver(1))
    leaf = min(bq.blossom_vertices)
    with pytest.raises(BoundError):
        enumerate_walks(bq, 0)
    for make in (peak_walk, deep_walk):
        for v in (leaf, "nosuch"):
            with pytest.raises(ParseError):
                make(bq, v)


def test_bad_walk_arguments_raise_typed_errors_under_optimize():
    assert run_python(BAD_ARGUMENTS, "-O") == [
        "BoundError", "ParseError", "ParseError", "ParseError"
    ]


def _enumeration_cases():
    for name, q in corpus().items():
        for bound in (4, 8):
            yield f"{name}-{bound}", q, bound
    for spec in ("doublecycle:1", "doublecycle:2", "doublepath:3", "doublepath:4"):
        for bound in (4, 8, 12, 16):
            yield f"{spec}-{bound}", parse_family(f"family:{spec}"), bound
    for seed in range(30):
        for bound in (4, 8):
            yield f"random{seed}-{bound}", random_locally_gentle(random.Random(seed)), bound


def test_enumeration_matches_reference_oracle():
    for name, q, bound in _enumeration_cases():
        bq = blossom(q)
        walks, complete = enumerate_walks(bq, bound)
        want, want_complete = reference_enumerate_walks(bq, bound)
        assert [w.serialize() for w in walks] == [w.serialize() for w in want], name
        assert walks == want and complete == want_complete, name


def test_enumeration_canonicalizes_each_walk_once(monkeypatch):
    # one pass per walk: validated once and only the kept Walk built; growth
    # reaches directed canonical forms, so only the reverse of each fully
    # periodic walk is normalized
    calls = Counter()

    def count(name):
        real = getattr(walks_module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(walks_module, name, counted)

    for name in ("_validate_word", "_directed_canonical", "Walk"):
        count(name)
    bq = blossom(parse_family("family:doublecycle:1"))
    walks, complete = enumerate_walks(bq, 16)
    assert not complete
    # growth builds valid words (`test_every_grown_walk_passes_validation`):
    # only each fully periodic walk is validated
    assert calls["Walk"] == len(walks) == 3193
    assert calls["_validate_word"] == len(primitive_cycles(bq))
    assert calls["_directed_canonical"] <= len(primitive_cycles(bq)) == 1
    # the text a walk is given is the text it would build: growth assembles
    # it from prefix texts, not from the walk's form
    monkeypatch.undo()
    for name, q, bound in _enumeration_cases():
        for w in enumerate_walks(blossom(q), bound)[0]:
            assert w.serialize() == _serialize_form(
                w.ltail, w.body, w.rtail, serialize_letter
            ), name


def _validation_cases():
    # 381 cases: the corpus, the families at four bounds, 150 random quivers
    for name, q in corpus().items():
        for bound in (4, 8, 12):
            yield f"{name}-{bound}", q, bound
    for spec in (
        "doublecycle:1", "doublecycle:2", "doublecycle:3", "doublepath:2",
        "doublepath:3", "doublepath:4", "apath:4", "cycle:3", "reversedpath:3",
    ):
        for bound in (4, 8, 12, 16):
            yield f"{spec}-{bound}", parse_family(f"family:{spec}"), bound
    for seed in range(150):
        for bound in (4, 8):
            yield f"random{seed}-{bound}", random_locally_gentle(random.Random(seed), 5), bound


def test_every_grown_walk_passes_validation():
    # enumerate_walks validates no word it grows (its docstring argues why);
    # this test holds the check it would have made
    cases = 0
    for name, q, bound in _validation_cases():
        bq = blossom(q)
        for w in enumerate_walks(bq, bound)[0]:
            walks_module._validate_word(bq, w.ltail, w.body, w.rtail)
        cases += 1
    assert cases == 381


def test_no_enumerated_walk_is_its_own_reverse_form():
    # so the pending set of reverse texts loses nothing: each walk that is not
    # fully periodic is reached from its two ends, by two different forms
    for name, q, bound in _enumeration_cases():
        for w in enumerate_walks(blossom(q), bound)[0]:
            if not w.is_infinite_straight:
                assert reverse_walk(w) != (w.ltail, w.body, w.rtail), name


# the body bounds of the benchmark's walk commands
GROWN = (("doublecycle:1", 16), ("doublecycle:2", 12), ("doublepath:3", 16), ("doublepath:4", 14))


def _assert_grown_forms_are_canonical(walks):
    # a fully periodic walk is not grown, and its reverse is normalized
    for w in walks:
        forms = [(w.ltail, w.body, w.rtail)]
        if not w.is_infinite_straight:
            forms.append(reverse_walk(w))
        for form in forms:
            assert _directed_canonical(*form) == form, w.serialize()


@pytest.mark.parametrize("spec, bound", GROWN)
def test_growth_emits_directed_canonical_forms(spec, bound):
    bq = blossom(parse_family(f"family:{spec}"))
    _assert_grown_forms_are_canonical(enumerate_walks(bq, bound)[0])


# (family, walk, what parse_walk gives), each parsed twice on one blossoming
# per family: a tail unit that fails is never remembered as passed, and
# units that passed are remembered per blossoming
TAIL_UNIT_CASES = (
    ("doublecycle:1", "( a1+ a1+ ) | | ( a1+ a1+ )", "ParseError"),  # proper power
    ("doublecycle:1", "( a1+ b1- ) | | ( a1+ b1- )", "ParseError"),  # mixed signs
    ("doublecycle:1", "( a1+ b1+ a1+ ) | | ( a1+ b1+ a1+ )", "RelationHit"),
    ("cycle:2", "( a1+ ) | | ( a1+ )", "ParseError"),  # not closed
    ("cycle:1", "( a1+ ) | | ( a1+ )", "Walk"),
    ("doublecycle:1", "( a1+ ) | | ( a1+ )", "RelationHit"),
)

TAIL_UNITS = f"""
from nonkissing.errors import NonKissingError
from nonkissing.families import parse_family
from nonkissing.quiver import blossom

from oracles import parse_walk

blossomings = {{}}
for spec, text, _ in {TAIL_UNIT_CASES!r}:
    if spec not in blossomings:
        blossomings[spec] = blossom(parse_family("family:" + spec))
    for _ in range(2):
        try:
            print(type(parse_walk(blossomings[spec], text)).__name__)
        except NonKissingError as exc:
            print(type(exc).__name__)
"""


TAIL_UNIT_RESULTS = [want for *_, want in TAIL_UNIT_CASES for _ in range(2)]


def test_bad_tail_units_raise_typed_errors_every_time(capsys):
    exec(TAIL_UNITS, {})
    assert capsys.readouterr().out.split() == TAIL_UNIT_RESULTS


def test_bad_tail_units_raise_typed_errors_every_time_under_optimize():
    assert run_python(TAIL_UNITS, "-O") == TAIL_UNIT_RESULTS


def test_tail_units_are_the_closed_primitive_words_of_one_sign():
    specs = ["apath:6", "reversedpath:4", "cycle:3", "doublepath:3", "doublecycle:2", "cambrian:FRRF"]
    quivers = list(corpus().values()) + [parse_family(f"family:{spec}") for spec in specs]
    quivers += [random_locally_gentle(random.Random(seed), 6) for seed in range(80)]
    with_units = 0
    for q in quivers:
        bq = blossom(q)
        assert set(bq.tail_units) == reference_tail_units(bq), q
        assert all(cyc == tail_cycle(u) for u, cyc in bq.tail_units.items()), q
        with_units += bool(bq.tail_units)
    assert 20 <= with_units <= len(quivers) - 20


def test_tail_units_of_the_one_vertex_cycles():
    loop, double = (blossom(parse_family(f"family:{spec}")) for spec in ("cycle:1", "doublecycle:1"))
    assert loop.tail_units == {(("a1", -1),): (("a1",), -1), (("a1", 1),): (("a1",), 1)}
    assert double.tail_units == {
        (("a1", -1), ("b1", -1)): (("a1", "b1"), -1),
        (("a1", 1), ("b1", 1)): (("a1", "b1"), 1),
        (("b1", -1), ("a1", -1)): (("a1", "b1"), -1),
        (("b1", 1), ("a1", 1)): (("a1", "b1"), 1),
    }
    parse_walk(loop, "( a1+ ) | | ( a1+ )")
    with pytest.raises(RelationHit):
        parse_walk(double, "( a1+ ) | | ( a1+ )")


# (family, walk, error, message): each junction of the window
# ltail[-1:] + body + rtail[:1] with a gap, an unreduced factor and a
# relation; tail units that fail their own check; open finite ends
JUNCTION_CASES = (
    ("cycle:1", "( a1+ ) | v1+in1+ v1+out1+", ParseError, "do not compose"),
    ("cycle:1", "( a1+ ) | a1- v1+out1+", NotReduced, "cancels"),
    ("cycle:1", "( a1+ ) | v1+out1+", RelationHit, "lies in the ideal"),
    ("cycle:1", "v1+in1+ v1+out1+ | ( a1+ )", ParseError, "do not compose"),
    ("cycle:1", "v1+in1+ a1- | ( a1+ )", NotReduced, "cancels"),
    ("cycle:1", "v1+in1+ | ( a1+ )", RelationHit, "lies in the ideal"),
    ("cycle:2", "( a1+ a2+ ) | | ( a2+ a1+ )", ParseError, "do not compose"),
    ("cycle:2", "( a1+ a2+ ) | | ( a2- a1- )", NotReduced, "cancels"),
    ("doublecycle:1", "( a1+ b1+ ) | | ( b1+ a1+ )", RelationHit, "lies in the ideal"),
    ("cycle:2", "( a1+ ) | v1+in1-", ParseError, "not a closed cycle"),
    ("cycle:2", "v1+in1+ | ( a2- )", ParseError, "not a closed cycle"),
    ("doublecycle:1", "( a1+ b1+ a1+ b1+ ) | | ( a1+ b1+ )", ParseError, "proper power"),
    ("doublecycle:1", "( a1+ b1+ ) | | ( a1+ b1+ a1+ b1+ )", ParseError, "proper power"),
    ("cycle:1", "( a1+ a1- ) | v1+in1-", ParseError, "not uniformly signed"),
    ("cycle:1", "v1+in1+ | ( a1- a1+ )", ParseError, "not uniformly signed"),
    ("cycle:1", "a1- v1+out1+", NotMaximal, "left end"),
    ("cycle:1", "v1+in1+ a1-", NotMaximal, "right end"),
    ("cycle:2", "( a1+ a2+ ) | a1+", NotMaximal, "right end"),
    ("cycle:2", "a2+ | ( a1+ a2+ )", NotMaximal, "left end"),
)


# texts outside `[TAIL "|"] LETTER* ["|" TAIL]`: a bar stands only beside a
# tail, and a tail only beside a bar
GRAMMAR_CASES = (
    ("apath:2", "v1+out1- | a1+ v2+out2+", ParseError, "expected a tail"),
    ("apath:2", "v1+out1- a1+ v2+out2+ |", ParseError, "expected a tail"),
    ("cycle:1", "( a1+ ) | ( a1+ )", ParseError, "bad letter"),
    ("cycle:1", "( a1+ ) | | | ( a1+ )", ParseError, "more than two"),
    ("cycle:1", "( a1+ )", ParseError, "bad letter"),
)


@pytest.mark.parametrize("spec, text, error, message", JUNCTION_CASES + GRAMMAR_CASES)
def test_validation_errors_at_each_junction(spec, text, error, message):
    bq = blossom(parse_family(f"family:{spec}"))
    with pytest.raises(error, match=message):
        parse_walk(bq, text)


def test_successor_table_is_the_pair_rule():
    quivers = list(corpus().values())
    quivers += [random_locally_gentle(random.Random(seed)) for seed in range(30)]
    for q in quivers:
        bq = blossom(q)
        letters = [(a, s) for a in bq.quiver.arrow_ids for s in (1, -1)]
        assert set(bq.successors) == set(letters)
        for x in letters:
            want = sorted(y for y in letters if pair_ok(bq, x, y))
            assert list(bq.successors[x]) == want


def test_strip_minimal_matches_reference(universes):
    for bq, walks in universes.values():
        for w in walks:
            for ltail, body, rtail in (
                (w.ltail, w.body, w.rtail),
                (w.ltail, w.ltail + w.body + w.rtail, w.rtail),
                (w.ltail, w.ltail * 3 + w.body[:1], w.rtail),
                reverse_walk(w),
            ):
                got = _strip_minimal(ltail, body, rtail)
                assert got == reference_strip_minimal(ltail, body, rtail)


# random_locally_gentle seeds; the same examples on every run
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _random_universe(seed):
    bq = blossom(random_locally_gentle(random.Random(seed)))
    return bq, enumerate_walks(bq, 6)[0]


@PROPERTY
@given(SEEDS)
def test_canonicalize_is_idempotent_and_reversal_invariant(seed):
    bq, walks = _random_universe(seed)
    for w in walks:
        assert canonicalize(bq, w.ltail, w.body, w.rtail) == w
        assert canonicalize(bq, *reverse_walk(w)) == w
        # one period of each tail unrolled into the body
        assert canonicalize(bq, w.ltail, w.ltail + w.body + w.rtail, w.rtail) == w


@PROPERTY
@given(SEEDS)
def test_growth_emits_directed_canonical_forms_on_random_quivers(seed):
    _assert_grown_forms_are_canonical(_random_universe(seed)[1])


@PROPERTY
@given(SEEDS)
def test_peak_and_deep_walks_have_single_corner_on_random_quivers(seed):
    _assert_single_corners(*_random_universe(seed))


@PROPERTY
@given(SEEDS)
def test_parse_and_serialize_round_trip(seed):
    bq, walks = _random_universe(seed)
    for w in walks:
        text = w.serialize()
        back = parse_walk(bq, text)
        assert back == w and back.serialize() == text


# a hand-built blossoming, never validated: the straight path from leaf 1
# runs into the loop c at vertex 2, so c has two relation-free predecessors
WINDING_LEAF = """
from nonkissing.errors import GentleBranchViolation
from nonkissing.quiver import BlossomQuiver, BoundQuiver
from nonkissing.walks import finite_straight_walks

q = BoundQuiver(("1", "2"), (("c", "2", "2"), ("l", "1", "2")), frozenset())
bq = BlossomQuiver(q, q, frozenset({"1"}), frozenset({"l"}))
try:
    finite_straight_walks(bq)
    print("returned")
except GentleBranchViolation:
    print("GentleBranchViolation")
"""


def test_straight_walk_winding_from_a_leaf_raises_under_optimize():
    assert run_python(WINDING_LEAF, "-O") == ["GentleBranchViolation"]
