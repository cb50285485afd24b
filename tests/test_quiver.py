"""Validation, blossoming, pruning (an oracle) and Koszul duality."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonkissing.errors import (
    DegreeViolation,
    GentleBranchViolation,
    NonComposableRelation,
    NotComplete,
    ParseError,
)
from nonkissing.families import (
    a_path,
    corpus,
    double_cycle,
    double_path,
    loop_quiver,
    random_locally_gentle,
    reversed_path,
)
from nonkissing.quiver import (
    BoundQuiver,
    blossom,
    canonical_key,
    is_isomorphic,
    json_text,
    koszul_dual,
    make_quiver,
    quiver_from_json,
    validate_locally_gentle,
)
from nonkissing.surface import SurfaceModel, surface_from_quiver, surfaces_isomorphic
from nonkissing.walks import letter_src

from oracles import (
    prune,
    reference_json_text,
    reference_validate_locally_gentle,
    vf2_isomorphic,
)
from pyrun import run_python


def test_a2_is_valid():
    q = make_quiver(["1", "2"], [("a", "1", "2")])
    validate_locally_gentle(q)


def test_single_loop_is_valid():
    q = make_quiver(["1"], [("a", "1", "1")])
    validate_locally_gentle(q)


def test_three_outgoing_arrows_rejected():
    with pytest.raises(DegreeViolation):
        make_quiver(
            ["1", "2"],
            [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "1")],
        )


def test_non_composable_relation_rejected():
    with pytest.raises(NonComposableRelation):
        make_quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "1", "3")],
            [("a", "b")],
        )


def test_two_relation_free_successors_rejected():
    # b has two relation-free successors c and d
    with pytest.raises(GentleBranchViolation):
        make_quiver(
            ["1", "2", "3", "4"],
            [("b", "1", "2"), ("c", "2", "3"), ("d", "2", "4")],
        )


def test_blossom_sizes_a2():
    bq = blossom(a_path(2))
    assert len(bq.quiver.vertices) == 8
    assert len(bq.quiver.arrows) == 7


def test_blossom_sizes_loop():
    bq = blossom(loop_quiver())
    assert len(bq.quiver.vertices) == 3
    assert len(bq.quiver.arrows) == 3


def test_double_cycle_has_no_blossoms():
    bq = blossom(double_cycle(3))
    assert not bq.blossom_vertices
    assert not bq.blossom_arrows


def test_blossom_is_complete_and_prunes_back():
    for q in corpus().values():
        bq = blossom(q)
        for v in bq.quiver.vertices:
            assert bq.quiver.degree(v) in (1, 4)
        assert prune(bq.quiver) == q


# (base quiver, leaves, full arrow list, relations): a new id that is taken
# by an original vertex or arrow is primed, the other id of the pair is not
BLOSSOM_COLLISIONS = (
    (
        make_quiver(["v", "v+in1"], [("a", "v", "v+in1")]),
        ["v+in1'", "v+in1+in1", "v+in1+out1", "v+in1+out2", "v+in2", "v+out1"],
        [
            ("a", "v", "v+in1"),
            ("v+in1", "v+in1'", "v"),
            ("v+in1+in1", "v+in1+in1", "v+in1"),
            ("v+in1+out1", "v+in1", "v+in1+out1"),
            ("v+in1+out2", "v+in1", "v+in1+out2"),
            ("v+in2", "v+in2", "v"),
            ("v+out1", "v", "v+out1"),
        ],
        [("a", "v+in1+out1"), ("v+in1", "a"), ("v+in1+in1", "v+in1+out2"), ("v+in2", "v+out1")],
    ),
    (
        make_quiver(["1", "2"], [("1+in1", "2", "1")]),
        ["1+in1", "1+out1", "1+out2", "2+in1", "2+in2", "2+out1"],
        [
            ("1+in1", "2", "1"),
            ("1+in1'", "1+in1", "1"),
            ("1+out1", "1", "1+out1"),
            ("1+out2", "1", "1+out2"),
            ("2+in1", "2+in1", "2"),
            ("2+in2", "2+in2", "2"),
            ("2+out1", "2", "2+out1"),
        ],
        [("1+in1", "1+out1"), ("1+in1'", "1+out2"), ("2+in1", "1+in1"), ("2+in2", "2+out1")],
    ),
)


@pytest.mark.parametrize(
    "q, leaves, arrows, relations", BLOSSOM_COLLISIONS, ids=["vertex v+in1", "arrow 1+in1"]
)
def test_blossom_ids_step_around_taken_ones(q, leaves, arrows, relations):
    bq = blossom(q)
    assert sorted(bq.blossom_vertices) == leaves
    assert list(bq.quiver.arrows) == arrows
    assert bq.blossom_arrows == {a for a, _, _ in arrows} - set(q.arrow_ids)
    assert sorted(bq.quiver.relations) == relations


def test_leaf_letter_leaves_its_leaf():
    for q in corpus().values():
        bq = blossom(q)
        assert set(bq.leaf_letter) == bq.blossom_vertices
        for v, x in bq.leaf_letter.items():
            assert letter_src(bq, x) == v
            assert x[0] in bq.blossom_arrows


def test_prune_rejects_incomplete():
    # the middle vertex of the path on 3 vertices has total degree 2
    with pytest.raises(NotComplete):
        prune(a_path(3))


def test_prune_of_leafless_complete_quiver_is_identity():
    q = double_cycle(2)
    assert prune(q) == q


def test_koszul_dual_involution():
    for q in corpus().values():
        assert is_isomorphic(koszul_dual(koszul_dual(q)), q)


def test_koszul_dual_of_free_loop_gains_relation():
    dual = koszul_dual(loop_quiver())
    assert ("a1", "a1") in dual.relations


def test_koszul_commutes_with_blossom():
    for name, q in corpus().items():
        b1 = blossom(koszul_dual(q)).quiver
        b2 = koszul_dual(blossom(q).quiver)
        assert is_isomorphic(b1, b2), name


def test_blossom_relation_slots():
    # every arrow of a blossoming has exactly one relation partner and one
    # relation-free partner on each interior side
    for q in corpus().values():
        bq = blossom(q)
        quiv = bq.quiver
        for b in quiv.arrow_ids:
            preds = quiv.arrows_in[quiv.src[b]]
            if preds:
                assert sum((a, b) in quiv.relations for a in preds) == 1
                assert sum((a, b) not in quiv.relations for a in preds) == 1


def test_json_roundtrip_byte_stable():
    q = reversed_path(3)
    text = q.to_json()
    assert quiver_from_json(text).to_json() == text


# strings mix any code point with the ones JSON escapes or spells out:
# quotes, backslashes, control characters, DEL and the line separators
JSON_STRINGS = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u2028\u2029é€😀')
)
JSON_DOCS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64))
    | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(JSON_DOCS)
def test_json_text_is_json_dumps_byte_for_byte(doc):
    assert json_text(doc) == reference_json_text(doc) + "\n"


@pytest.mark.parametrize(
    "doc",
    [1.5, Fraction(1, 2), {"a": [0.0]}, [{"b": Fraction(3)}], {1: "x"}, {None: 1}, {"a": {2: []}}],
)
def test_json_text_refuses_floats_fractions_and_keys_not_str(doc):
    with pytest.raises(TypeError):
        json_text(doc)


def test_json_unknown_field_rejected():
    with pytest.raises(ParseError):
        quiver_from_json('{"vertices": [], "arrows": [], "bogus": 1}')


def test_json_bad_ids_rejected():
    # whitespace, Unicode spaces included, and the walk syntax's reserved characters
    for bad in ("a b", "a\tb", "a\u00a0b", "a\u2003b", "(a", "a)", "a|b", 'a"b'):
        with pytest.raises(ParseError):
            quiver_from_json(json.dumps({"vertices": [bad], "arrows": []}))
        arrow = {"id": bad, "src": "v", "tgt": "v"}
        with pytest.raises(ParseError):
            quiver_from_json(json.dumps({"vertices": ["v"], "arrows": [arrow]}))


def test_json_ids_may_hold_colons_and_primes():
    arrows = [{"id": "a:b", "src": "v'", "tgt": "w:1"}, {"id": "a'", "src": "w:1", "tgt": "v'"}]
    q = quiver_from_json(json.dumps({"vertices": ["v'", "w:1"], "arrows": arrows}))
    assert q.arrow_ids == ("a'", "a:b")
    assert q.vertices == ("v'", "w:1")


def test_isomorphism_invariant_under_relabeling():
    q1 = make_quiver(["x", "y"], [("e", "x", "y")])
    q2 = make_quiver(["p", "q"], [("f", "p", "q")])
    assert is_isomorphic(q1, q2)


def test_isomorphism_sees_relations():
    l1 = make_quiver(["v"], [("a", "v", "v")], [])
    l2 = make_quiver(["v"], [("a", "v", "v")], [("a", "a")])
    assert not is_isomorphic(l1, l2)


def _relabeled(q, rng):
    """q with vertex and arrow ids replaced by a random permutation of fresh ids."""
    vnames = [f"x{i}" for i in range(len(q.vertices))]
    anames = [f"e{i}" for i in range(len(q.arrows))]
    rng.shuffle(vnames)
    rng.shuffle(anames)
    vmap = dict(zip(q.vertices, vnames))
    amap = dict(zip(q.arrow_ids, anames))
    return make_quiver(
        vnames,
        [(amap[a], vmap[s], vmap[t]) for a, s, t in q.arrows],
        [(amap[a], amap[b]) for a, b in q.relations],
    )


def test_isomorphism_agrees_with_vf2_oracle():
    rng = random.Random(7)
    randoms = [random_locally_gentle(rng, 5) for _ in range(12)]
    quivers = randoms + [koszul_dual(q) for q in randoms]
    quivers += [a_path(3), loop_quiver(), reversed_path(2), double_cycle(2)]
    for n in (4, 8, 12, 16):
        for q in (double_cycle(n), double_path(n)):
            quivers += [q, _relabeled(q, rng)]
    # is_isomorphic compares canonical keys; compute each key once
    keys = [canonical_key(q) for q in quivers]
    for i, qa in enumerate(quivers):
        for j in range(i, len(quivers)):
            assert (keys[i] == keys[j]) == vf2_isomorphic(qa, quivers[j])


def _renamed_quads(s, rng):
    """The surface s with its quads renamed by a random permutation of fresh names."""
    names = [f"q{i}" for i in range(len(s.quads))]
    rng.shuffle(names)
    name = dict(zip(s.quads, names))
    twin = {
        (name[q], k): None if t is None else (name[t[0]], t[1])
        for (q, k), t in s.twin.items()
    }
    return SurfaceModel([name[q] for q in s.quads], twin)


def test_isomorphism_tests_decide_differing_labels_by_keys():
    # labels differ in every pair, so only the canonical keys can decide
    rng = random.Random(11)
    quivers = [random_locally_gentle(rng, 5) for _ in range(4)]
    quivers += [q for n in (4, 8) for q in (double_cycle(n), double_path(n))]
    relabeled = [_relabeled(q, rng) for q in quivers]
    surfaces = [surface_from_quiver(q) for q in quivers]
    for qb in relabeled:
        renamed = _renamed_quads(surface_from_quiver(qb), rng)
        for qa, sa in zip(quivers, surfaces):
            same = vf2_isomorphic(qa, qb)
            assert is_isomorphic(qa, qb) == same
            assert surfaces_isomorphic(sa, surface_from_quiver(qb)) == same
            assert surfaces_isomorphic(sa, renamed) == same


def test_random_generator_produces_valid_quivers():
    rng = random.Random(99)
    for _ in range(30):
        validate_locally_gentle(random_locally_gentle(rng))


def _malformed_quiver(rng: random.Random) -> BoundQuiver:
    """1-5 vertices, random arrows (loops and parallel arrows among them),
    random composable relation pairs and at times one arbitrary pair."""
    vertices = [str(i) for i in range(rng.randint(1, 5))]
    arrows = [
        (f"a{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(0, 2 * len(vertices)))
    ]
    ids = [a for a, _, _ in arrows]
    composable = [(a, b) for a, _, t in arrows for b, s, _ in arrows if t == s]
    relations = set(rng.sample(composable, min(len(composable), rng.randint(0, len(ids)))))
    if ids and rng.random() < 0.25:
        relations.add((rng.choice(ids), rng.choice(ids)))
    return BoundQuiver(tuple(vertices), tuple(arrows), frozenset(relations))


def _outcome(validate, q):
    try:
        return validate(q)
    except (DegreeViolation, NonComposableRelation, GentleBranchViolation) as exc:
        return type(exc), str(exc)


# the end of each message validation can raise
VIOLATIONS = (
    "incoming arrows",
    "outgoing arrows",
    "is not a composable pair",
    "two relation predecessors",
    "two relation-free predecessors",
    "two relation successors",
    "two relation-free successors",
)


def test_validation_agrees_with_the_list_building_oracle():
    seen = set()
    for seed in range(400):
        q = _malformed_quiver(random.Random(seed))
        got = _outcome(validate_locally_gentle, q)
        assert got == _outcome(reference_validate_locally_gentle, q), seed
        seen.add("valid" if got is q else next(v for v in VIOLATIONS if v in got[1]))
    # the sample reaches every check
    assert seen == {"valid", *VIOLATIONS}, seen


# random_locally_gentle seeds; the same examples on every run
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTY
@given(SEEDS)
def test_blossom_is_valid_complete_and_sized(seed):
    q = random_locally_gentle(random.Random(seed))
    bq = blossom(q).quiver
    validate_locally_gentle(bq)
    assert all(bq.degree(v) in (1, 4) for v in bq.vertices)
    n0, n1 = len(q.vertices), len(q.arrows)
    assert len(bq.vertices) == 5 * n0 - 2 * n1
    assert len(bq.arrows) == 4 * n0 - n1


@PROPERTY
@given(SEEDS)
def test_koszul_dual_is_valid_and_an_exact_involution(seed):
    q = random_locally_gentle(random.Random(seed))
    dual = koszul_dual(q)
    validate_locally_gentle(dual)
    assert koszul_dual(dual) == q


# a hand-built quiver, never validated, in which arrow a composes to zero
# with both successors: no relation matching completes vertex 2
UNCOMPLETABLE = BoundQuiver(
    vertices=("1", "2", "3", "4"),
    arrows=(("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")),
    relations=frozenset({("a", "b"), ("a", "c")}),
)


def test_blossom_of_uncompletable_quiver_raises_not_complete():
    with pytest.raises(GentleBranchViolation):
        validate_locally_gentle(UNCOMPLETABLE)
    with pytest.raises(NotComplete):
        blossom(UNCOMPLETABLE)


def test_blossom_raises_not_complete_under_optimize():
    script = (
        "from nonkissing.errors import NotComplete\n"
        "from nonkissing.quiver import BoundQuiver, blossom\n"
        f"q = {UNCOMPLETABLE!r}\n"
        "try:\n"
        "    blossom(q)\n"
        "except NotComplete:\n"
        "    print('NotComplete')\n"
    )
    assert run_python(script, "-O") == ["NotComplete"]


def test_blossom_leaf_with_two_arrows_raises_not_complete_under_optimize():
    # a hand-built blossoming, never validated, whose leaf 2 has two arrows
    script = (
        "from nonkissing.errors import NotComplete\n"
        "from nonkissing.quiver import BlossomQuiver, BoundQuiver\n"
        "q = BoundQuiver(('1', '2'), (('a', '1', '2'), ('b', '1', '2')), frozenset())\n"
        "bq = BlossomQuiver(q, q, frozenset({'2'}), frozenset({'a', 'b'}))\n"
        "try:\n"
        "    bq.leaf_letter\n"
        "except NotComplete:\n"
        "    print('NotComplete')\n"
    )
    assert run_python(script, "-O") == ["NotComplete"]
