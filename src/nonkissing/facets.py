"""Countercurrent order, distinguished walks and arrows, flips, facets.

Marked occurrences use a global letter index on the stored direction of a
walk: body letters are 0..B-1, right-tail letters B, B+1, ... periodically,
left-tail letters -1, -2, ... periodically.  Only occurrences in the body
and the first period of each tail are ever marked; the occurrence closest to
the body dominates the deeper periodic copies in the countercurrent order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import networkx as nx

from .errors import (
    FlipCheckFailed,
    IncompleteUniverse,
    KissingPair,
    NotBending,
    NotClosed,
    NotMaximalFacet,
    NotMember,
    SameMarkedWalk,
)
from .quiver import BlossomQuiver, BoundQuiver, blossom
from .walks import (
    Letter,
    Walk,
    canonicalize,
    enumerate_walks,
    deep_walk,
    inv,
    is_bending,
    kiss_count,
    kissing,
    letter_tgt,
    peak_walk,
    primitive_cycles,
    rev_word,
    straight_walks,
    walk_uses_cycle,
)


def walk_letter(w: Walk, g: int) -> Letter | None:
    b = len(w.body)
    if 0 <= g < b:
        return w.body[g]
    if g >= b:
        if not w.rtail:
            return None
        return w.rtail[(g - b) % len(w.rtail)]
    if not w.ltail:
        return None
    p = len(w.ltail)
    return w.ltail[p - 1 - ((-1 - g) % p)]


def _marked_letters(w: Walk):
    """(position, letter) of the canonical marked occurrences, ascending.

    Marked are the body and the first period of each tail.
    """
    if w.is_infinite_straight:
        return enumerate(w.rtail)
    return chain(
        enumerate(w.ltail, -len(w.ltail)),
        enumerate(w.body),
        enumerate(w.rtail, len(w.body)),
    )


def mark_positions(w: Walk, arrow: str) -> list[int]:
    """Canonical marked occurrences of an arrow: body plus first tail periods."""
    return [g for g, (a, _) in _marked_letters(w) if a == arrow]


@dataclass(frozen=True)
class MarkedWalk:
    walk: Walk
    position: int  # global letter index on the stored direction

    @property
    def letter(self) -> Letter:
        letter = walk_letter(self.walk, self.position)
        assert letter is not None
        return letter


def _stream(w: Walk, g0: int, orient: int):
    def get(i: int) -> Letter | None:
        letter = walk_letter(w, g0 + orient * i)
        if letter is None:
            return None
        return letter if orient == 1 else inv(letter)

    return get


def _agreement_limit(w1: Walk, w2: Walk) -> int:
    lens = [len(u) for u in (w1.ltail, w1.rtail, w2.ltail, w2.rtail) if u]
    lcm = 1
    for k in lens:
        lcm = lcm * k // math.gcd(lcm, k)
    return len(w1.body) + len(w2.body) + 2 * lcm + 8


def countercurrent_less(
    bq: BlossomQuiver, m: MarkedWalk, n: MarkedWalk, arrow: str
) -> bool:
    """True iff m comes before n in the countercurrent order at the arrow.

    Both marked walks are oriented so the marked occurrence reads as the
    arrow taken forwards, then compared letterwise outward from the mark.
    At the first disagreement on either side exactly one of the two leaves
    with the flow of the arrow; that one is the smaller.
    """
    lm = walk_letter(m.walk, m.position)
    ln = walk_letter(n.walk, n.position)
    assert lm is not None and lm[0] == arrow, "m is not marked at the arrow"
    assert ln is not None and ln[0] == arrow, "n is not marked at the arrow"
    if m == n or (m.walk == n.walk and m.walk.is_infinite_straight):
        raise SameMarkedWalk(f"cannot compare a marked walk with itself at {arrow!r}")
    sm = _stream(m.walk, m.position, 1 if lm[1] == 1 else -1)
    sn = _stream(n.walk, n.position, 1 if ln[1] == 1 else -1)
    limit = _agreement_limit(m.walk, n.walk)
    verdicts = []
    for direction in (1, -1):
        for i in range(1, limit + 1):
            x = sm(direction * i)
            y = sn(direction * i)
            if x is None and y is None:
                break
            if x is None or y is None:
                break
            if x != y:
                assert x[1] != y[1], "split letters must take opposite directions"
                verdicts.append(x[1] == 1)
                break
        # loop exhaustion = infinite periodic agreement: uninformative side
    if not verdicts:
        raise SameMarkedWalk("marked walks agree on both sides")
    if len(verdicts) == 2 and verdicts[0] != verdicts[1]:
        raise KissingPair("countercurrent order undefined: the walks kiss")
    return verdicts[0]


def _countercurrent_max(bq: BlossomQuiver, marks: list[MarkedWalk], arrow: str) -> MarkedWalk:
    best = marks[0]
    for cand in marks[1:]:
        if countercurrent_less(bq, best, cand, arrow):
            best = cand
    return best


def distinguished_walk(
    bq: BlossomQuiver, walks, arrow: str
) -> MarkedWalk | None:
    """Max of the countercurrent order over all marked occurrences in walks."""
    marks = [
        MarkedWalk(w, g) for w in walks for g in mark_positions(w, arrow)
    ]
    return _countercurrent_max(bq, marks, arrow) if marks else None


# ---------------------------------------------------------------------------
# facets


@dataclass(frozen=True)
class Facet:
    """A maximal non-kissing collection: bending walks plus all straight walks."""

    bending: tuple[Walk, ...]
    straights: tuple[Walk, ...]

    @cached_property
    def key(self) -> tuple[str, ...]:
        return tuple(sorted(w.serialize() for w in self.bending))

    @property
    def walks(self) -> tuple[Walk, ...]:
        return self.bending + self.straights

    def replace(self, old: Walk, new: Walk) -> "Facet":
        bending = tuple(
            sorted((set(self.bending) - {old}) | {new}, key=Walk.serialize)
        )
        return Facet(bending=bending, straights=self.straights)


def make_facet(bending, straights) -> Facet:
    return Facet(
        bending=tuple(sorted(set(bending), key=Walk.serialize)),
        straights=tuple(sorted(set(straights), key=Walk.serialize)),
    )


def distinguished_data(bq: BlossomQuiver, facet: Facet) -> dict[str, MarkedWalk]:
    """The distinguished marked walk at every arrow of the blossoming quiver."""
    marks: dict[str, list[MarkedWalk]] = {}
    for w in facet.walks:
        for g, (a, _) in _marked_letters(w):
            marks.setdefault(a, []).append(MarkedWalk(w, g))
    return {
        a: _countercurrent_max(bq, marks[a], a)
        for a in bq.quiver.arrow_ids
        if a in marks
    }


def distinguished_arrows(
    bq: BlossomQuiver, facet: Facet, w: Walk, data: dict[str, MarkedWalk] | None = None
) -> list[str]:
    if w not in facet.walks:
        raise NotMember(f"walk {w.serialize()!r} is not in the facet")
    if data is None:
        data = distinguished_data(bq, facet)
    return sorted(a for a, mw in data.items() if mw.walk == w)


@dataclass(frozen=True)
class DistinguishedString:
    """The substring of a bending walk between its two distinguished arrows."""

    walk: Walk
    left: int  # global index of the left distinguished letter
    right: int
    on_top: bool
    letters: tuple[Letter, ...]
    vertices: tuple[str, ...]  # vertices of the substring, endpoints included


def distinguished_substring(
    bq: BlossomQuiver, facet: Facet, w: Walk, data: dict[str, MarkedWalk] | None = None
) -> DistinguishedString:
    if not is_bending(w):
        raise NotBending(f"walk {w.serialize()!r} is straight")
    if data is None:
        data = distinguished_data(bq, facet)
    marks = sorted(
        (mw.position, a) for a, mw in data.items() if mw.walk == w
    )
    if len(marks) != 2:
        raise NotMaximalFacet(
            f"bending walk has {len(marks)} distinguished arrows, expected 2"
        )
    (g1, _), (g2, _) = marks
    l1 = walk_letter(w, g1)
    l2 = walk_letter(w, g2)
    assert l1 is not None and l2 is not None
    assert l1[1] != l2[1], "distinguished arrows must point in opposite directions"
    on_top = l1[1] == -1 and l2[1] == 1
    letters = tuple(walk_letter(w, g) for g in range(g1 + 1, g2))
    vertices = tuple(letter_tgt(bq, walk_letter(w, g)) for g in range(g1, g2))
    return DistinguishedString(w, g1, g2, on_top, letters, vertices)


# ---------------------------------------------------------------------------
# flips


def _oriented_triple(w: Walk, orient: int):
    if orient == 1:
        return (w.ltail, w.body, w.rtail)
    return (rev_word(w.rtail), rev_word(w.body), rev_word(w.ltail))


def _oriented_position(w: Walk, g: int, orient: int) -> int:
    return g if orient == 1 else len(w.body) - 1 - g


def _prefix_through(triple, p: int):
    """(ltail, letters) of the oriented walk up to position p inclusive."""
    lt, bd, rt = triple
    if p < 0:
        assert lt and -p <= len(lt), "mark beyond the first tail period"
        return lt, lt[: len(lt) + p + 1]
    if p < len(bd):
        return lt, bd[: p + 1]
    j = p - len(bd)
    assert rt and j < len(rt), "mark beyond the first tail period"
    return lt, bd + rt[: j + 1]


def _suffix_from(triple, p: int):
    """(letters, rtail) of the oriented walk from position p inclusive."""
    lt, bd, rt = triple
    if p >= len(bd):
        assert rt, "mark beyond a finite right end"
        j = p - len(bd)
        assert j < len(rt), "mark beyond the first tail period"
        return rt[j:], rt
    if p >= 0:
        return bd[p:], rt
    assert lt and -p <= len(lt), "mark beyond the first tail period"
    return lt[len(lt) + p :] + bd, rt


def _companion(bq: BlossomQuiver, letter: Letter, side: str) -> str:
    """The ideal partner of a distinguished letter at its substring endpoint.

    side 'left': the letter sits just left of the substring, its endpoint is
    the letter target.  side 'right': endpoint is the letter source.
    """
    a, s = letter
    if side == "left":
        v = bq.quiver.tgt[a] if s == 1 else bq.quiver.src[a]
        if s == 1:
            cands = [c for c in bq.quiver.arrows_out[v] if (a, c) in bq.quiver.relations]
        else:
            cands = [c for c in bq.quiver.arrows_in[v] if (c, a) in bq.quiver.relations]
    else:
        v = bq.quiver.src[a] if s == 1 else bq.quiver.tgt[a]
        if s == 1:
            cands = [c for c in bq.quiver.arrows_in[v] if (c, a) in bq.quiver.relations]
        else:
            cands = [c for c in bq.quiver.arrows_out[v] if (a, c) in bq.quiver.relations]
    assert len(cands) == 1, f"expected a unique ideal partner for {letter}, got {cands}"
    return cands[0]


def _expected_run(w: Walk, start: int, step: int, guard: int, prefix) -> list:
    """prefix, then walk letters from start stepping by step, None-terminated."""
    out = list(prefix)
    for k in range(guard):
        x = walk_letter(w, start + step * k)
        out.append(x)
        if x is None:
            break
    return out


def _orient_matching(mw: MarkedWalk, expected, side: int):
    """Orientation of mw.walk whose letters match expected on the given side.

    side +1 compares positions after the mark, side -1 before it; a None in
    expected demands the walk end there too.
    """
    for orient in (1, -1):
        stream = _stream(mw.walk, mw.position, orient)
        if all(
            stream(side * i) == want for i, want in enumerate(expected, start=1)
        ):
            return orient
    return None


def flip(
    bq: BlossomQuiver, facet: Facet, w: Walk, check: bool = True,
    data: dict[str, MarkedWalk] | None = None,
):
    """Exchange the bending walk w, returning (new facet, new walk, direction).

    direction is 'increasing' when the distinguished substring of w lies on
    top of w, 'decreasing' otherwise.  data is the facet's distinguished
    data, computed here when not given.
    """
    if w not in facet.walks:
        raise NotMember(f"walk {w.serialize()!r} not in facet")
    if not is_bending(w):
        raise NotBending("only bending walks can be flipped")
    ds = distinguished_substring(bq, facet, w, data)
    g1, g2 = ds.left, ds.right
    l1 = walk_letter(w, g1)
    l2 = walk_letter(w, g2)
    alpha_p = _companion(bq, l1, "left")
    beta_p = _companion(bq, l2, "right")
    rest = [x for x in facet.walks if x != w]
    mu = distinguished_walk(bq, rest, alpha_p)
    nu = distinguished_walk(bq, rest, beta_p)
    assert mu is not None and nu is not None, "companion arrows must be covered"

    sigma = ds.letters
    guard = 4 + len(sigma) + len(w.body) + 2 * max(
        len(w.rtail), len(w.ltail), len(mu.walk.body), len(nu.walk.body), 1
    )
    # mu = rho' sigma tau: after mu's mark come sigma then w's letters from g2
    after_mu = _expected_run(w, g2, 1, guard, sigma)
    o_mu = _orient_matching(mu, after_mu, side=1)
    assert o_mu is not None, "distinguished walk does not split along sigma tau"
    # nu = rho sigma tau': before nu's mark come sigma reversed positionwise,
    # then w's letters leftward from g1
    before_nu = _expected_run(w, g1, -1, guard, tuple(reversed(sigma)))
    o_nu = _orient_matching(nu, before_nu, side=-1)
    assert o_nu is not None, "distinguished walk does not split along rho sigma"

    t_mu = _oriented_triple(mu.walk, o_mu)
    p_mu = _oriented_position(mu.walk, mu.position, o_mu)
    lt, rho_letters = _prefix_through(t_mu, p_mu)
    t_nu = _oriented_triple(nu.walk, o_nu)
    p_nu = _oriented_position(nu.walk, nu.position, o_nu)
    tau_letters, rt = _suffix_from(t_nu, p_nu)

    new = canonicalize(bq, lt, tuple(rho_letters) + sigma + tuple(tau_letters), rt)
    assert new != w, "flip produced the same walk"
    if check:
        if not kissing(bq, w, new):
            raise FlipCheckFailed("flip result must kiss the flipped walk")
        for other in rest:
            if kissing(bq, new, other):
                raise FlipCheckFailed("flip result kisses a facet member")
    direction = "increasing" if ds.on_top else "decreasing"
    return facet.replace(w, new), new, direction


# ---------------------------------------------------------------------------
# flip graph


@dataclass(frozen=True)
class FlipEdge:
    source: int
    target: int
    walk_out: str
    walk_in: str
    direction: str


@dataclass(frozen=True)
class FlipGraph:
    quiver: BoundQuiver
    facets: tuple[Facet, ...]
    edges: tuple[FlipEdge, ...]
    closed: bool

    @cached_property
    def index(self) -> dict[tuple[str, ...], int]:
        return {f.key: i for i, f in enumerate(self.facets)}


def peak_facet(bq: BlossomQuiver) -> Facet:
    bend = [peak_walk(bq, v) for v in bq.base.vertices]
    return make_facet(bend, straight_walks(bq))


def deep_facet(bq: BlossomQuiver) -> Facet:
    bend = [deep_walk(bq, v) for v in bq.base.vertices]
    return make_facet(bend, straight_walks(bq))


def enumerate_facets(
    q: BoundQuiver, max_facets: int = 10000, check_flips: bool = True
) -> FlipGraph:
    """BFS closure of flips starting from the peak facet."""
    assert max_facets >= 1
    bq = blossom(q)
    start = peak_facet(bq)
    facets = [start]
    index = {start.key: 0}
    edges: list[FlipEdge] = []
    closed = True
    head = 0
    while head < len(facets):
        facet = facets[head]
        data = distinguished_data(bq, facet)
        for w in facet.bending:
            new_facet, new_walk, direction = flip(bq, facet, w, check_flips, data)
            j = index.get(new_facet.key)
            if j is None:
                if len(facets) >= max_facets:
                    closed = False
                    continue
                j = len(facets)
                index[new_facet.key] = j
                facets.append(new_facet)
            edges.append(
                FlipEdge(head, j, w.serialize(), new_walk.serialize(), direction)
            )
        head += 1
    return FlipGraph(q, tuple(facets), tuple(edges), closed)


def brute_force_facets(q: BoundQuiver, body_bound: int = 64) -> list[Facet]:
    """Oracle: maximal cliques of the non-kissing compatibility graph."""
    bq = blossom(q)
    walks, complete = enumerate_walks(bq, body_bound)
    if not complete:
        raise IncompleteUniverse("walk enumeration truncated; oracle unavailable")
    bend = [
        w for w in walks if is_bending(w) and kiss_count(bq, w, w) == 0
    ]
    graph = nx.Graph()
    graph.add_nodes_from(range(len(bend)))
    for i in range(len(bend)):
        for j in range(i + 1, len(bend)):
            if not kissing(bq, bend[i], bend[j]):
                graph.add_edge(i, j)
    straights = straight_walks(bq)
    facets = [
        make_facet([bend[i] for i in clique], straights)
        for clique in nx.find_cliques(graph)
    ]
    return sorted(facets, key=lambda f: f.key)


# ---------------------------------------------------------------------------
# verification reports


def verify_purity(g: FlipGraph) -> list[str]:
    bq = blossom(g.quiver)
    n0 = len(g.quiver.vertices)
    n1 = len(g.quiver.arrows)
    p = len(primitive_cycles(bq))
    report = []
    for i, f in enumerate(g.facets):
        fin = [w for w in f.straights if not w.is_infinite_straight]
        inf = [w for w in f.straights if w.is_infinite_straight]
        if len(f.bending) != n0:
            report.append(f"facet {i}: {len(f.bending)} bending walks, expected {n0}")
        if len(fin) != 2 * n0 - n1:
            report.append(
                f"facet {i}: {len(fin)} finite straight walks, expected {2 * n0 - n1}"
            )
        if len(inf) != p:
            report.append(f"facet {i}: {len(inf)} infinite straight walks, expected {p}")
        if len(f.walks) != 3 * n0 - n1 + p:
            report.append(
                f"facet {i}: {len(f.walks)} walks total, expected {3 * n0 - n1 + p}"
            )
    return report


def verify_thinness(g: FlipGraph) -> list[str]:
    if not g.closed:
        raise NotClosed("thinness check needs a closed flip graph")
    bq = blossom(g.quiver)
    data = [distinguished_data(bq, f) for f in g.facets]
    # holders of a ridge: the facets that are the ridge plus one bending walk
    holders = Counter(frozenset(f.bending) - {w} for f in g.facets for w in f.bending)
    report = []
    for i, f in enumerate(g.facets):
        for w in f.bending:
            f2, w2, d = flip(bq, f, w, check=False, data=data[i])
            j = g.index.get(f2.key)
            if j is None:
                report.append(f"facet {i}: flip at {w.serialize()} leaves the graph")
                continue
            f3, w3, d3 = flip(bq, f2, w2, check=False, data=data[j])
            if f3.key != f.key or w3 != w:
                report.append(f"facet {i}: flip at {w.serialize()} is not an involution")
            if {d, d3} != {"increasing", "decreasing"}:
                report.append(f"facet {i}: flip directions do not reverse")
            # codimension-1 face in exactly two facets
            k = holders[frozenset(f.bending) - {w}]
            if k != 2:
                report.append(
                    f"facet {i}: ridge without {w.serialize()} lies in {k} facets"
                )
    return report


def verify_distinguished_census(g: FlipGraph) -> list[str]:
    bq = blossom(g.quiver)
    report = []
    for i, f in enumerate(g.facets):
        data = distinguished_data(bq, f)
        for w in f.walks:
            k = len([a for a, mw in data.items() if mw.walk == w])
            if is_bending(w):
                want = 2
            elif w.is_infinite_straight:
                want = 0
            else:
                want = 1
            if k != want:
                report.append(
                    f"facet {i}: walk {w.serialize()} has {k} distinguished arrows,"
                    f" expected {want}"
                )
    return report


def walks_through_cycles_check(g: FlipGraph) -> list[str]:
    bq = blossom(g.quiver)
    cycles = primitive_cycles(bq)
    report = []
    for i, f in enumerate(g.facets):
        for c in cycles:
            if not any(walk_uses_cycle(w, c) for w in f.bending):
                report.append(f"facet {i}: no bending walk spirals into cycle {c}")
    return report
