"""Countercurrent order, distinguished walks and arrows, flips, facets.

Marked occurrences use a global letter index on the stored direction of a
walk: body letters are 0..B-1, right-tail letters B, B+1, ... periodically,
left-tail letters -1, -2, ... periodically.  Only occurrences in the body
and the first period of each tail are ever marked, and `_at` raises
NotMarked for any other index; the occurrence closest to the body dominates
the deeper periodic copies in the countercurrent order.

The flip engine works on a `QuiverContext`, one per quiver.  Inside it a
walk is an int id, a mark is a (walk id, position) pair and a facet is the
tuple of its bending walk ids in serialization order.  Ids never reach the
output, which stays sorted by serialization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import (
    BoundError,
    FlipCheckFailed,
    FlipFailed,
    KissingPair,
    NotClosed,
    NotMarked,
    NotMaximalFacet,
    OrderError,
    SameMarkedWalk,
)
from .quiver import BlossomQuiver, BoundQuiver, blossom, cached_property
from .walks import (
    Letter,
    Walk,
    canonicalize,
    deep_walk,
    inv,
    kiss_count,
    letter_tgt,
    peak_walk,
    primitive_cycles,
    rev_word,
    span,
    straight_walks,
    walk_universe,
    walk_uses_cycle,
)

Mark = tuple[int, int]  # (walk id, global letter index) inside a QuiverContext
Marked = tuple[Walk, int]  # (walk, global letter index on its stored direction)


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


def _at(w: Walk, g: int, n: int) -> tuple[tuple[Letter, ...], int]:
    """(word, i): w's window word (`Walk.window`) with n letters or more
    past every marked position, and the index i of position g in it.

    Only the body and the first period of each tail are marked: NotMarked
    for any other g.
    """
    lt, rt = len(w.ltail), len(w.rtail)
    if not -lt <= g < len(w.body) + rt:
        raise NotMarked(f"position {g} of {w.serialize()} is not marked")
    win = w.window(n + max(lt, rt))
    return win.word, win.start + g


def _side(word: tuple[Letter, ...], i: int, step: int, n: int) -> tuple:
    """The n letters of word beside index i, nearest first: after i for
    step 1, before it for step -1.  Fewer at an end of the word, which on
    a word from `_at` is an end of the walk."""
    return word[i + 1 : i + 1 + n] if step == 1 else word[max(i - n, 0) : i][::-1]


def countercurrent_less(bq: BlossomQuiver, m: Marked, n: Marked, arrow: str) -> bool:
    """True iff m comes before n in the countercurrent order at the arrow.

    m and n are (walk, position) pairs.  Both walks are read so the marked
    occurrence reads as the arrow taken forwards, then compared letterwise
    outward from the mark for `span` letters per side; walks that agree
    that far agree forever.  Each walk is read off its stored unrolled
    word (`_at`), stepping backwards with signs flipped when the marked
    letter points backwards.  At the first disagreement on either side
    exactly one of the two leaves with the flow of the arrow; that one is
    the smaller.
    """
    (wm, pm), (wn, pn) = m, n
    limit = span(wm, wn)
    xm, i = _at(wm, pm, limit)
    xn, j = _at(wn, pn, limit)
    if xm[i][0] != arrow:
        raise NotMarked(f"m is not marked at {arrow!r}")
    if xn[j][0] != arrow:
        raise NotMarked(f"n is not marked at {arrow!r}")
    if m == n or (wm == wn and wm.is_infinite_straight):
        raise SameMarkedWalk(f"cannot compare a marked walk with itself at {arrow!r}")
    om, on = xm[i][1], xn[j][1]  # the stored directions that read the arrow forwards
    verdicts = []
    for side in (1, -1):
        sm, sn = side * om, side * on  # steps along the stored words
        # letters left on each word; where a walk ends first, no verdict
        left_m = len(xm) - 1 - i if sm == 1 else i
        left_n = len(xn) - 1 - j if sn == 1 else j
        for t in range(1, min(limit, left_m, left_n) + 1):
            x, y = xm[i + sm * t], xn[j + sn * t]
            sx, sy = x[1] * om, y[1] * on  # signs in the arrow's orientation
            if x[0] != y[0] or sx != sy:
                if sx == sy:
                    raise OrderError("split letters must take opposite directions")
                verdicts.append(sx == 1)
                break
        # no disagreement: the walks agree forever on this side
    if not verdicts:
        raise SameMarkedWalk("marked walks agree on both sides")
    if len(verdicts) == 2 and verdicts[0] != verdicts[1]:
        raise KissingPair("countercurrent order undefined: the walks kiss")
    return verdicts[0]


# ---------------------------------------------------------------------------
# the per-quiver context


class QuiverContext:
    """A quiver's blossoming, its interned walks and memoized pair facts.

    `intern` gives each walk a dense int id and computes its serialization,
    its marked positions by arrow and whether it bends, once.  Kiss numbers
    and countercurrent verdicts are memoized by id; they are the values of
    the pure kernels `kiss_count` and `countercurrent_less`, so a context
    changes no result.  So are a walk's distinguished substring under given
    distinguished positions and the walk a flip builds from it, keyed by
    every value they read, and the ids of the complete walk universe
    (`universe`).  The tables belong to the context and die with it.
    """

    def __init__(self, bq: BlossomQuiver):
        self.bq = bq
        self.walks: list[Walk] = []
        self.keys: list[str] = []  # serializations
        self.marks: list[dict[str, tuple[int, ...]]] = []  # arrow -> marked positions
        self.bending: list[bool] = []
        self._ids: dict[Walk, int] = {}
        self._kn: dict[tuple[int, int], int] = {}
        self._less: dict[tuple[Mark, Mark], bool] = {}
        # (walk id, distinguished positions) -> (substring, left/right partners)
        self._substrings: dict[tuple[int, tuple[int, ...]], tuple] = {}
        # (walk id, distinguished positions, mu mark, nu mark) -> flipped walk id
        self._built: dict[tuple, int] = {}
        self._universe: tuple[int, ...] | None = None

    @property
    def q(self) -> BoundQuiver:
        return self.bq.base

    def intern(self, w: Walk) -> int:
        i = self._ids.get(w)
        if i is None:
            i = self._ids[w] = len(self.walks)
            self.walks.append(w)
            self.keys.append(w.serialize())
            marks: dict[str, list[int]] = {}
            for g, (a, _) in _marked_letters(w):
                marks.setdefault(a, []).append(g)
            self.marks.append({a: tuple(gs) for a, gs in marks.items()})
            self.bending.append(not w.is_straight)
        return i

    def universe(self, who: str) -> tuple[int, ...]:
        """The ids of `walk_universe`, interned once it is complete; on a
        band every call raises IncompleteUniverse naming its own caller who."""
        if self._universe is None:
            self._universe = tuple(map(self.intern, walk_universe(self.bq, who)))
        return self._universe

    def kn(self, i: int, j: int) -> int:
        """kn(walk i, walk j)."""
        k = self._kn.get((i, j))
        if k is None:
            k = self._kn[i, j] = kiss_count(self.bq, self.walks[i], self.walks[j])
        return k

    def kissing(self, i: int, j: int) -> bool:
        return self.kn(i, j) > 0 or self.kn(j, i) > 0

    def less(self, m: Mark, n: Mark, arrow: str) -> bool:
        """countercurrent_less of two marks; the arrow is the one at both marks."""
        v = self._less.get((m, n))
        if v is None:
            v = self._less[m, n] = countercurrent_less(
                self.bq, (self.walks[m[0]], m[1]), (self.walks[n[0]], n[1]), arrow
            )
        return v

    def substring(self, wi: int, data: dict[str, Mark]):
        """(distinguished substring, left partner, right partner) of walk wi.

        data is the distinguished data of a facet holding wi; the partners
        are the ideal partners of the two distinguished letters.
        """
        key = (wi, tuple(sorted(g for i, g in data.values() if i == wi)))
        hit = self._substrings.get(key)
        if hit is None:
            hit = self._substrings[key] = _substring(self.bq, self.walks[wi], key[1])
        return hit

    def build(self, wi: int, ds: DistinguishedString, mu: Mark, nu: Mark) -> int:
        """`_construct` of walk wi with substring ds and partner marks mu, nu."""
        key = (wi, (ds.left, ds.right), mu, nu)
        new = self._built.get(key)
        if new is None:
            new = self._built[key] = _construct(self, wi, ds, mu, nu)
        return new


def _marks_at(ctx: QuiverContext, ids, arrow: str) -> list[Mark]:
    return [(i, g) for i in ids for g in ctx.marks[i].get(arrow, ())]


def _countercurrent_max(ctx: QuiverContext, marks: list[Mark], arrow: str) -> Mark:
    best = marks[0]
    for cand in marks[1:]:
        if ctx.less(best, cand, arrow):
            best = cand
    return best


def distinguished_data(ctx: QuiverContext, ids) -> dict[str, Mark]:
    """The distinguished mark at every arrow marked by one of the walks ids."""
    marks: dict[str, list[Mark]] = {}
    for i in ids:
        for a, gs in ctx.marks[i].items():
            marks.setdefault(a, []).extend((i, g) for g in gs)
    return {
        a: _countercurrent_max(ctx, marks[a], a)
        for a in ctx.bq.quiver.arrow_ids
        if a in marks
    }


def _derived_data(
    ctx: QuiverContext, ids, parent: dict[str, Mark], old: int, new: int
) -> dict[str, Mark]:
    """`distinguished_data` of the facet whose walks are ids, reached by
    exchanging walk old for new in a facet whose distinguished data is parent.

    Only the arrows that old or new marks can change: elsewhere the
    parent's mark is not on old and new adds none.  The countercurrent
    order is total on a facet's walks, so at an arrow whose parent mark is
    not on old the maximum is that of the parent's mark and new's marks
    there.  Where the parent's mark was on old the arrow is scanned over
    ids again, and where the parent has no mark only new can mark it.  An
    arrow that no walk marks any more is dropped.
    """
    data = dict(parent)
    for a in ctx.marks[old] | ctx.marks[new]:
        m = parent.get(a)
        if m is not None and m[0] != old:
            marks = [m, *_marks_at(ctx, (new,), a)]
        else:
            marks = _marks_at(ctx, ids if m else (new,), a)
        if marks:
            data[a] = _countercurrent_max(ctx, marks, a)
        else:
            data.pop(a, None)
    return data


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


def make_facet(bending, straights) -> Facet:
    return Facet(
        bending=tuple(sorted(set(bending), key=Walk.serialize)),
        straights=tuple(sorted(set(straights), key=Walk.serialize)),
    )


@dataclass(frozen=True)
class DistinguishedString:
    """The substring of a bending walk between its two distinguished arrows."""

    left: int  # global index of the left distinguished letter
    right: int
    on_top: bool
    letters: tuple[Letter, ...]
    vertices: tuple[str, ...]  # vertices of the substring, endpoints included


def _substring(
    bq: BlossomQuiver, w: Walk, marks: tuple[int, ...]
) -> tuple[DistinguishedString, str, str]:
    """The distinguished substring of w, whose distinguished marks are at marks,
    with the ideal partners of its left and right distinguished letters."""
    if len(marks) != 2:
        raise NotMaximalFacet(
            f"bending walk has {len(marks)} distinguished arrows, expected 2"
        )
    g1, g2 = sorted(marks)
    # letters g1..g2, a slice of the one-period word: marks lie in the body
    # or a first tail period
    lt = len(w.ltail)
    run = (w.ltail + w.body + w.rtail)[lt + g1 : lt + g2 + 1]
    l1, l2 = run[0], run[-1]
    if l1[1] == l2[1]:
        raise NotMaximalFacet("distinguished arrows must point in opposite directions")
    on_top = l1[1] == -1 and l2[1] == 1
    letters = run[1:-1]
    vertices = tuple(letter_tgt(bq, x) for x in run[:-1])
    ds = DistinguishedString(g1, g2, on_top, letters, vertices)
    return ds, _companion(bq, l1), _companion(bq, inv(l2))


# ---------------------------------------------------------------------------
# flips


def _companion(bq: BlossomQuiver, letter: Letter) -> str:
    """The ideal partner of a letter at its target: the arrow c with a c in
    the ideal when the letter reads arrow a forwards, c a when backwards.
    A right distinguished letter starts its substring: pass its inverse.
    """
    a, s = letter
    q = bq.quiver
    v = letter_tgt(bq, letter)
    if s == 1:
        cands = [c for c in q.arrows_out[v] if (a, c) in q.relations]
    else:
        cands = [c for c in q.arrows_in[v] if (c, a) in q.relations]
    if len(cands) != 1:
        raise FlipFailed(f"expected a unique ideal partner for {letter}, got {cands}")
    return cands[0]


def flip(ctx: QuiverContext, ids, data: dict[str, Mark], wi: int, check: bool):
    """Exchange the bending walk wi of the facet whose walks are ids,
    returning (new walk id, direction).

    data is the facet's distinguished data.  direction is 'increasing' when
    the distinguished substring of wi lies on top of wi, 'decreasing'
    otherwise.  With check the new walk must kiss wi and no other walk of
    the facet, as the BFS checks every flip it computes.
    The distinguished marks mu and nu at the partner arrows are the
    countercurrent maxima over the facet's other walks: data's marks there
    when they are not on wi, else a scan of the other walks.  The walk built
    from them is memoized on the context.
    """
    ds, alpha_p, beta_p = ctx.substring(wi, data)
    rest = [x for x in ids if x != wi]
    # data holds the maximum over all the facet's walks: off wi, it is the
    # maximum over rest
    mu_marks, nu_marks = (
        [data[a]] if a in data and data[a][0] != wi else _marks_at(ctx, rest, a)
        for a in (alpha_p, beta_p)
    )
    if not mu_marks or not nu_marks:
        raise FlipFailed("companion arrows must be covered")
    mu = _countercurrent_max(ctx, mu_marks, alpha_p)
    nu = _countercurrent_max(ctx, nu_marks, beta_p)
    new = ctx.build(wi, ds, mu, nu)
    if check:
        if not ctx.kissing(wi, new):
            raise FlipCheckFailed("flip result must kiss the flipped walk")
        # straight walks kiss nothing
        for other in rest:
            if ctx.bending[other] and ctx.kissing(new, other):
                raise FlipCheckFailed("flip result kisses a facet member")
    return new, "increasing" if ds.on_top else "decreasing"


def _construct(
    ctx: QuiverContext, wi: int, ds: DistinguishedString, mu_mark: Mark, nu_mark: Mark
) -> int:
    """The id of the walk that replaces walk wi, whose distinguished substring
    is ds, given the distinguished marks mu and nu at its partner arrows."""
    w = ctx.walks[wi]
    (mu_id, mu_g), (nu_id, nu_g) = mu_mark, nu_mark
    mu, nu = ctx.walks[mu_id], ctx.walks[nu_id]
    n = len(ds.letters) + max(span(w, mu), span(w, nu))
    xw, i = _at(w, ds.left, n)
    xm, im = _at(mu, mu_g, n)
    xn, jn = _at(nu, nu_g, n)
    # the sign rule: mu is read so its marked letter points forwards when
    # the substring is on top, backwards at the bottom; nu the opposite way
    top = 1 if ds.on_top else -1
    o_mu, o_nu = xm[im][1] * top, -xn[jn][1] * top
    # mu = rho' sigma tau: after mu's mark come sigma then w's letters from
    # its right distinguished letter on, which is w read after its left one
    after = _side(xw, i, 1, n)
    if _side(xm, im, o_mu, n) != (after if o_mu == 1 else tuple(map(inv, after))):
        raise FlipFailed("distinguished walk does not split along sigma tau")
    # nu = rho sigma tau': before nu's mark comes w read before its right
    # distinguished letter
    before = _side(xw, i + ds.right - ds.left, -1, n)
    if _side(xn, jn, -o_nu, n) != (before if o_nu == 1 else tuple(map(inv, before))):
        raise FlipFailed("distinguished walk does not split along rho sigma")
    # rho runs through mu's mark and tau on from nu's mark: slices of the
    # one-period words of the read walks (marks lie in the body or a first
    # tail period), whose extra tail periods canonicalize absorbs
    mu_word, nu_word = mu.ltail + mu.body + mu.rtail, nu.ltail + nu.body + nu.rtail
    pm, pn = len(mu.ltail) + mu_g, len(nu.ltail) + nu_g
    if o_mu == 1:
        lt, rho = mu.ltail, mu_word[: pm + 1]
    else:
        lt, rho = rev_word(mu.rtail), rev_word(mu_word[pm:])
    if o_nu == 1:
        rt, tau = nu.rtail, nu_word[pn:]
    else:
        rt, tau = rev_word(nu.ltail), rev_word(nu_word[: pn + 1])
    new = ctx.intern(canonicalize(ctx.bq, lt, rho + ds.letters + tau, rt))
    if new == wi:
        raise FlipFailed("flip produced the same walk")
    return new


def _exchange(ctx: QuiverContext, bending: tuple[int, ...], old: int, new: int):
    """The bending walk ids with old replaced by new, in serialization order."""
    return tuple(sorted(set(bending) - {old} | {new}, key=ctx.keys.__getitem__))


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
    """The facets reached by flips, indexing into the quiver's context.

    ids[i] are facet i's bending walk ids in serialization order and
    straights the ids of the straight walks every facet holds.  data[i] is
    facet i's distinguished data, arrow -> mark: computed afresh for the
    start facet and, for every other facet, derived from the data of the
    facet whose flip first reached it.
    """

    ctx: QuiverContext
    ids: tuple[tuple[int, ...], ...]
    straights: tuple[int, ...]
    data: tuple[dict[str, Mark], ...]
    edges: tuple[FlipEdge, ...]
    closed: bool

    @property
    def quiver(self) -> BoundQuiver:
        return self.ctx.q

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        walks = self.ctx.walks
        straights = tuple(walks[i] for i in self.straights)
        return tuple(Facet(tuple(walks[i] for i in b), straights) for b in self.ids)


def peak_facet(bq: BlossomQuiver) -> Facet:
    bend = [peak_walk(bq, v) for v in bq.base.vertices]
    return make_facet(bend, straight_walks(bq))


def deep_facet(bq: BlossomQuiver) -> Facet:
    bend = [deep_walk(bq, v) for v in bq.base.vertices]
    return make_facet(bend, straight_walks(bq))


_REVERSED = {"increasing": "decreasing", "decreasing": "increasing"}


def enumerate_facets(
    q: BoundQuiver, max_facets: int = 10000, ctx: QuiverContext | None = None
) -> FlipGraph:
    """BFS closure of flips starting from the peak facet of q, a locally gentle quiver.

    The complex is thin, so flipping is an involution: when w in F flips to
    w' in a facet F' not yet expanded, flipping w' in F' is recorded as
    giving w back with the direction reversed, and F' uses the record
    instead of flipping again.  The start facet is checked pairwise and
    every computed flip against its facet, which covers the pairs of every
    facet reached.  Only the start facet's distinguished data is computed
    afresh: a flip that first reaches a facet derives the facet's data from
    the flipped facet's, which differs in one walk (`_derived_data`).

    ctx is the quiver's context; a new one is built when not given.
    """
    if max_facets < 1:
        raise BoundError("max_facets must be at least 1")
    if ctx is None:
        ctx = QuiverContext(blossom(q))
    start = peak_facet(ctx.bq)
    straights = tuple(map(ctx.intern, start.straights))
    facets = [tuple(map(ctx.intern, start.bending))]
    if any(ctx.kn(i, j) for i in facets[0] for j in facets[0]):
        raise FlipCheckFailed("the peak facet has a kissing pair")
    index = {facets[0]: 0}
    data = [distinguished_data(ctx, facets[0] + straights)]
    edges: list[FlipEdge] = []
    # (facet index, walk id) -> (new walk id, direction), known from the reverse flip
    reverse: dict[tuple[int, int], tuple[int, str]] = {}
    closed = True
    for head, bending in enumerate(facets):  # facets grows as the BFS runs
        ids = bending + straights
        marks = data[head]
        for w in bending:
            recorded = reverse.pop((head, w), None)
            new, direction = recorded or flip(ctx, ids, marks, w, True)
            target = _exchange(ctx, bending, w, new)
            j = index.get(target)
            if j is None:
                if len(facets) >= max_facets:
                    closed = False
                    continue
                j = index[target] = len(facets)
                facets.append(target)
                data.append(_derived_data(ctx, target + straights, marks, w, new))
            if j > head:
                back = (w, _REVERSED[direction])
                if reverse.setdefault((j, new), back) != back:
                    raise FlipFailed(
                        f"facet {j} is reached twice by flips to {ctx.keys[new]}:"
                        " its ridge lies in more than two facets"
                    )
            edges.append(FlipEdge(head, j, ctx.keys[w], ctx.keys[new], direction))
    return FlipGraph(ctx, tuple(facets), straights, tuple(data), tuple(edges), closed)


def maximal_cliques(rows: list[int]) -> list[list[int]]:
    """Maximal cliques of the loopless graph on 0..n-1 with adjacency bitsets rows.

    Bron–Kerbosch with pivoting: the pivot is a vertex of the candidates or
    the excluded set with the most neighbours among the candidates, and only
    the candidates it is not adjacent to are branched on.
    """
    out: list[list[int]] = []

    def expand(clique: list[int], cand: int, excl: int) -> None:
        if not cand and not excl:
            out.append(clique)
            return
        pivot = max(_bits(cand | excl), key=lambda u: (rows[u] & cand).bit_count())
        for v in _bits(cand & ~rows[pivot]):
            expand(clique + [v], cand & rows[v], excl & rows[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand([], (1 << len(rows)) - 1, 0)
    return out


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def brute_force_facets(q: BoundQuiver, ctx: QuiverContext | None = None) -> list[Facet]:
    """Oracle: maximal cliques of the non-kissing compatibility graph.

    ctx is the quiver's context, whose kiss numbers are shared; a new one is
    built when not given.
    """
    if ctx is None:
        ctx = QuiverContext(blossom(q))
    bend = [i for i in ctx.universe("the clique oracle") if ctx.bending[i] and ctx.kn(i, i) == 0]
    rows = [0] * len(bend)
    for a in range(len(bend)):
        for b in range(a + 1, len(bend)):
            if not ctx.kissing(bend[a], bend[b]):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    straights = straight_walks(ctx.bq)
    facets = [
        make_facet([ctx.walks[bend[k]] for k in clique], straights)
        for clique in maximal_cliques(rows)
    ]
    return sorted(facets, key=lambda f: f.key)


# ---------------------------------------------------------------------------
# verification reports


def verify_purity(g: FlipGraph) -> list[str]:
    n0 = len(g.quiver.vertices)
    n1 = len(g.quiver.arrows)
    p = len(primitive_cycles(g.ctx.bq))
    # every facet holds the same straight walks
    inf = sum(g.ctx.walks[w].is_infinite_straight for w in g.straights)
    fin = len(g.straights) - inf
    report = []
    for i, bending in enumerate(g.ids):
        if len(bending) != n0:
            report.append(f"facet {i}: {len(bending)} bending walks, expected {n0}")
        if fin != 2 * n0 - n1:
            report.append(
                f"facet {i}: {fin} finite straight walks, expected {2 * n0 - n1}"
            )
        if inf != p:
            report.append(f"facet {i}: {inf} infinite straight walks, expected {p}")
        total = len(bending) + len(g.straights)
        if total != 3 * n0 - n1 + p:
            report.append(f"facet {i}: {total} walks total, expected {3 * n0 - n1 + p}")
    return report


def verify_thinness(g: FlipGraph) -> list[str]:
    if not g.closed:
        raise NotClosed("thinness check needs a closed flip graph")
    ctx = g.ctx
    index = {bending: i for i, bending in enumerate(g.ids)}
    # holders of a ridge: the facets that are the ridge plus one bending walk
    holders = Counter(frozenset(b) - {w} for b in g.ids for w in b)
    report = []
    for i, bending in enumerate(g.ids):
        for w in bending:
            w2, d = flip(ctx, bending + g.straights, g.data[i], w, False)
            b2 = _exchange(ctx, bending, w, w2)
            j = index.get(b2)
            if j is None:
                report.append(f"facet {i}: flip at {ctx.keys[w]} leaves the graph")
                continue
            w3, d3 = flip(ctx, b2 + g.straights, g.data[j], w2, False)
            if _exchange(ctx, b2, w2, w3) != bending or w3 != w:
                report.append(f"facet {i}: flip at {ctx.keys[w]} is not an involution")
            if {d, d3} != {"increasing", "decreasing"}:
                report.append(f"facet {i}: flip directions do not reverse")
            # codimension-1 face in exactly two facets
            k = holders[frozenset(bending) - {w}]
            if k != 2:
                report.append(
                    f"facet {i}: ridge without {ctx.keys[w]} lies in {k} facets"
                )
    return report


def verify_distinguished_census(g: FlipGraph) -> list[str]:
    ctx = g.ctx
    report = []
    for i, bending in enumerate(g.ids):
        held = Counter(w for w, _ in g.data[i].values())
        for w in bending + g.straights:
            if ctx.bending[w]:
                want = 2
            elif ctx.walks[w].is_infinite_straight:
                want = 0
            else:
                want = 1
            if held[w] != want:
                report.append(
                    f"facet {i}: walk {ctx.keys[w]} has {held[w]} distinguished arrows,"
                    f" expected {want}"
                )
    return report


def walks_through_cycles_check(g: FlipGraph) -> list[str]:
    cycles = primitive_cycles(g.ctx.bq)
    walks = g.ctx.walks
    report = []
    for i, bending in enumerate(g.ids):
        for c in cycles:
            if not any(walk_uses_cycle(walks[w], c) for w in bending):
                report.append(f"facet {i}: no bending walk spirals into cycle {c}")
    return report
