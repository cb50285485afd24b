"""Oracles the tests check production code against.

They re-derive results by slower, plainer means: raw word growth, a raw scan
of all factor windows, a generic graph-isomorphism backend, elimination over
Fractions, and a test of every vertex pair of the associahedron.  What they
still take from production, exactly:

* the word oracle (`brute_force_finite_walks`) uses the letter-pair
  legality rule `pair_ok`;
* the band oracle (`reference_has_band`) uses `pair_ok` alone: it searches
  closed legal words, where `has_band` reads the successor table;
* the tail-unit oracle (`reference_tail_units`) uses `pair_ok` alone: it
  searches closed words of one sign and keeps the primitive ones, where
  `BlossomQuiver.tail_units` follows straight rays through the successor
  table;
* the walk-growth oracle (`reference_enumerate_walks`: plain growth that
  copies the letter list at every step, scans the whole list for a
  repeated letter and canonicalizes every arrival, so each walk twice)
  uses the successor table `bq.successors`, `primitive_cycles` and
  `canonicalize`; `reference_strip_minimal` absorbs periodic body
  letters into the tails one letter at a time, beside the index
  arithmetic of `walks._strip_minimal`;
* the three kissing oracles (`raw_window_kiss_count`,
  `window_scan_kiss_count`, `reference_kiss_count`) take only the length
  `span` and the vertex lookup `letter_tgt` from production.  Their windows (`Window`, `make_window`, sized by
  `_tail_periods_for_pair`, whose `extra` unrolls more periods) and the
  pumping rule (`_is_pumpable`, which walks each matched pair of positions
  letter by letter and works out the direction of the match from the words)
  are their own, where `kiss_count` intersects the run with the tail zones
  as intervals.  The occurrence scan (`Occurrences`) lists every (a, b)
  factor of each window and matches it by its word up to reversal, an
  O(n^3) scan that shares nothing with the maximal-run scan of
  `kiss_count`.  The maximal-run oracle (`reference_kiss_count`) tries
  every start pair of the two whole windows and counts peaks and deeps over
  the whole windows, where `kiss_count` skips the start pairs that cannot
  end a run and reads corners off the bodies (`corner_profile`).

The countercurrent oracle (`reference_countercurrent_less`) takes two
(walk, position) pairs, as `countercurrent_less` does, and reads both
walks one letter at a time through its own `walk_letter`, by global letter
index, inverting letters by hand when a walk is read backwards, for a length
of its own (`_agreement_limit`); it shares no code and no length with
`countercurrent_less`, which reads the unrolled words of `walks._unrolled`,
only the convention of global letter indices.  It reads tails modulo their
periods, so it accepts positions in deeper tail periods that
`countercurrent_less` rejects as not marked.

The geometry oracles take nothing from production: `fraction_rank`,
`fraction_det` and `fraction_wall_normal` stand beside the integer Bareiss
elimination, and `pairwise_edge_report` beside the local edge certificate of
`build_associahedron`.

The surface oracles read only a model's quads and twin table, with the face
order of the sides (`next_face`, `start_corner`):
`union_find_corner_classes` joins corners by union-find over every gluing
instead of walking rotation orbits, and `all_roots_surface_key` encodes each
component from every `rs` root in full, with no pruning, on those classes.

The JSON oracle (`reference_json_text`) is the standard library's own
`json.dumps` with the CLI's layout, beside the writer `quiver.json_text`.
The validation oracle (`reference_validate_locally_gentle`) is the
list-building check that `quiver.validate_locally_gentle` replaced, with the
same checks in the same order; it reads the quiver's own tables.

Plain helpers no production path needs live here for the tests:
`reverse_walk` reads a walk's form backwards, `parse_walk` reads a walk's
serialization back, and `prune` deletes the leaves of a complete quiver,
undoing `blossom`.  The flip engine works on walk ids inside a
`QuiverContext`; `flip_facet`, `facet_distinguished_data`,
`walk_facet_matrices`, `walk_d_vector` and `walk_total_kissing_number` take
walks and facets instead, build a new context and call the one routine
there.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import networkx as nx

from dataclasses import dataclass

from nonkissing.errors import (
    BoundError,
    DegreeViolation,
    GentleBranchViolation,
    KissingPair,
    NonComposableRelation,
    NotBending,
    NotComplete,
    NotMarked,
    NotMember,
    OrderError,
    ParseError,
    SameMarkedWalk,
)
from nonkissing.facets import Facet, QuiverContext, distinguished_data, flip, make_facet
from nonkissing.geometry import d_vector, facet_matrices, g_vector
from nonkissing.quiver import BlossomQuiver, BoundQuiver
from nonkissing.surface import next_face, start_corner
from nonkissing.walks import (
    Letter,
    Walk,
    canonicalize,
    deep_walks,
    inv,
    letter_tgt,
    pair_ok,
    primitive_cycles,
    span,
    total_kissing_number,
)


def reference_json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def reference_validate_locally_gentle(q: BoundQuiver) -> BoundQuiver:
    for v in q.vertices:
        if len(q.arrows_in[v]) > 2:
            raise DegreeViolation(f"vertex {v!r} has {len(q.arrows_in[v])} incoming arrows")
        if len(q.arrows_out[v]) > 2:
            raise DegreeViolation(f"vertex {v!r} has {len(q.arrows_out[v])} outgoing arrows")
    for a, b in q.relations:
        if q.tgt[a] != q.src[b]:
            raise NonComposableRelation(f"relation ({a!r},{b!r}) is not a composable pair")
    for b in q.arrow_ids:
        preds = [a for a in q.arrows_in[q.src[b]]]
        rel = [a for a in preds if (a, b) in q.relations]
        free = [a for a in preds if (a, b) not in q.relations]
        if len(rel) > 1:
            raise GentleBranchViolation(f"arrow {b!r} has two relation predecessors {rel}")
        if len(free) > 1:
            raise GentleBranchViolation(f"arrow {b!r} has two relation-free predecessors {free}")
        succs = [c for c in q.arrows_out[q.tgt[b]]]
        rel = [c for c in succs if (b, c) in q.relations]
        free = [c for c in succs if (b, c) not in q.relations]
        if len(rel) > 1:
            raise GentleBranchViolation(f"arrow {b!r} has two relation successors {rel}")
        if len(free) > 1:
            raise GentleBranchViolation(f"arrow {b!r} has two relation-free successors {free}")
    return q


def rev_word(word):
    return tuple((a, -s) for a, s in reversed(word))


def reverse_walk(w: Walk) -> tuple:
    """The (ltail, body, rtail) of w read backwards."""
    return (rev_word(w.rtail), rev_word(w.body), rev_word(w.ltail))


def parse_letter(text: str) -> Letter:
    if len(text) < 2 or text[-1] not in "+-":
        raise ParseError(f"bad letter {text!r}")
    return (text[:-1], 1 if text[-1] == "+" else -1)


def parse_walk(bq: BlossomQuiver, text: str) -> Walk:
    """Read `[TAIL "|"] LETTER* ["|" TAIL]`: a bar stands only beside a tail."""
    parts: list[list[str]] = [[]]
    for tok in text.split():
        if tok == "|":
            parts.append([])
        else:
            parts[-1].append(tok)
    if len(parts) > 3:
        raise ParseError(f"more than two | in walk {text!r}")
    ltail = rtail = ()
    if len(parts) == 3 or (len(parts) == 2 and parts[0][:1] == ["("]):
        ltail = _parse_tail(parts.pop(0))
    if len(parts) == 2:
        rtail = _parse_tail(parts.pop())
    (body,) = parts
    return canonicalize(bq, ltail, tuple(map(parse_letter, body)), rtail)


def _parse_tail(toks: list[str]) -> tuple[Letter, ...]:
    if len(toks) < 3 or toks[0] != "(" or toks[-1] != ")":
        raise ParseError(f"expected a tail ( LETTER+ ) beside |, got {' '.join(toks)!r}")
    return tuple(map(parse_letter, toks[1:-1]))


def flip_facet(bq: BlossomQuiver, facet: Facet, w: Walk):
    """`flip` of the bending walk w of facet, with the new walk checked
    against the facet: (new facet, new walk, direction)."""
    if w not in facet.walks:
        raise NotMember(f"walk {w.serialize()!r} not in facet")
    if w.is_straight:
        raise NotBending("only bending walks can be flipped")
    ctx = QuiverContext(bq)
    ids = [ctx.intern(x) for x in facet.walks]
    new, direction = flip(ctx, ids, distinguished_data(ctx, ids), ctx.intern(w), True)
    w2 = ctx.walks[new]
    return make_facet(set(facet.bending) - {w} | {w2}, facet.straights), w2, direction


def facet_distinguished_data(bq: BlossomQuiver, facet: Facet) -> dict:
    """`distinguished_data` of facet, arrow -> (walk, position)."""
    ctx = QuiverContext(bq)
    data = distinguished_data(ctx, [ctx.intern(w) for w in facet.walks])
    return {a: (ctx.walks[i], g) for a, (i, g) in data.items()}


def walk_facet_matrices(bq: BlossomQuiver, facet: Facet):
    """`facet_matrices` of facet: (walks, G, C) over its bending walks."""
    ctx = QuiverContext(bq)
    ids = [ctx.intern(w) for w in facet.walks]  # the bending walks come first
    bending = ids[: len(facet.bending)]
    gvecs = {i: g_vector(bq, ctx.walks[i]) for i in bending}
    return facet_matrices(ctx, bending, gvecs, distinguished_data(ctx, ids))


def walk_d_vector(bq: BlossomQuiver, w: Walk) -> tuple[int, ...]:
    """`d_vector` of w."""
    ctx = QuiverContext(bq)
    wi = ctx.intern(w)
    return d_vector(ctx, wi, [ctx.intern(dw) for dw in deep_walks(bq).values()])


def walk_total_kissing_number(bq: BlossomQuiver, w: Walk) -> int:
    """`total_kissing_number` of w over the complete walk universe."""
    ctx = QuiverContext(bq)
    wi = ctx.intern(w)
    return total_kissing_number(ctx.kn, wi, ctx.universe("total kissing number"))


def prune(bq: BoundQuiver) -> BoundQuiver:
    """Delete all leaves of a complete quiver (inverse of blossoming)."""
    for v in bq.vertices:
        if bq.degree(v) not in (1, 4):
            raise NotComplete(f"vertex {v!r} has total degree {bq.degree(v)}")
    leaves = {v for v in bq.vertices if bq.degree(v) == 1}
    dead_arrows = {a for a, s, t in bq.arrows if s in leaves or t in leaves}
    return BoundQuiver(
        vertices=tuple(v for v in bq.vertices if v not in leaves),
        arrows=tuple(x for x in bq.arrows if x[0] not in dead_arrows),
        relations=frozenset(
            (a, b) for a, b in bq.relations if a not in dead_arrows and b not in dead_arrows
        ),
    )


def _letters(bq: BlossomQuiver):
    out = []
    for a in bq.quiver.arrow_ids:
        out.append((a, 1))
        out.append((a, -1))
    return out


def _extensions_right(bq, word):
    return [m for m in _letters(bq) if pair_ok(bq, word[-1], m)]


def _extensions_left(bq, word):
    return [m for m in _letters(bq) if pair_ok(bq, m, word[0])]


def brute_force_finite_walks(bq: BlossomQuiver, max_len: int = 24) -> set:
    """All undirected maximal finite words, by exhaustive growth.

    A finite word is maximal when neither end extends; with cycles present
    the enumeration below is still exhaustive for words up to max_len.
    """
    seen: set[tuple] = set()
    maximal: set[tuple] = set()
    frontier = [(l,) for l in _letters(bq)]
    while frontier:
        nxt = []
        for word in frontier:
            key = min(word, rev_word(word))
            if key in seen:
                continue
            seen.add(key)
            right = _extensions_right(bq, word)
            left = _extensions_left(bq, word)
            if not right and not left:
                maximal.add(key)
                continue
            if len(word) >= max_len:
                continue
            for m in right:
                nxt.append(word + (m,))
            for m in left:
                nxt.append((m,) + word)
        frontier = nxt
    return maximal


def reference_has_band(bq: BlossomQuiver) -> bool:
    """True if some closed legal word changes sign, by a search of words.

    From each first letter the search keeps, for each word it has grown, the
    last letter and whether the signs have changed yet; a band is a word
    that comes back to its first letter after a change of sign.
    """
    for first in _letters(bq):
        todo = [(first, False)]
        seen = set(todo)
        while todo:
            last, changed = todo.pop()
            for m in _extensions_right(bq, (last,)):
                state = (m, changed or m[1] != last[1])
                if state == (first, True):
                    return True
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
    return False


def reference_tail_units(bq: BlossomQuiver) -> set:
    """Every closed, uniformly signed, primitive legal word of letters.

    From each first letter the search grows words of the first letter's
    sign, as long as there are letters; a word whose last letter may be
    followed by its first is closed, and it is primitive when no proper
    rotation of it is the word itself.
    """
    letters = _letters(bq)
    nexts = {x: [m for m in letters if m[1] == x[1] and pair_ok(bq, x, m)] for x in letters}
    units = set()
    for first in letters:
        todo = [(first,)]
        while todo:
            word = todo.pop()
            if first in nexts[word[-1]] and all(
                word[p:] + word[:p] != word for p in range(1, len(word))
            ):
                units.add(word)
            if len(word) < len(letters):
                todo.extend(word + (m,) for m in nexts[word[-1]])
    return units


def reference_strip_minimal(ltail, body, rtail):
    """Absorb periodic body letters into the tails one letter at a time."""
    ltail, body, rtail = list(ltail), list(body), list(rtail)
    if ltail:
        while body and body[0] == ltail[0]:
            body.pop(0)
            ltail = ltail[1:] + ltail[:1]
    if rtail:
        while body and body[-1] == rtail[-1]:
            body.pop()
            rtail = rtail[-1:] + rtail[:-1]
    return tuple(ltail), tuple(body), tuple(rtail)


def reference_enumerate_walks(bq: BlossomQuiver, body_bound: int = 64):
    """The canonical walks that growth reaches within body_bound letters.

    A walk ltail | body | rtail is listed exactly when
    len(body) + min(len(ltail), len(rtail)) <= body_bound, a missing tail
    counting 0, and every fully periodic walk is listed: growth from one
    end reads the body and then the other end's tail, whole.

    Returns (walks, complete).  Branches that would re-enter a letter state
    already spun into a tail are pruned silently (cycle-rewinding walks are
    excluded from the universe by design); only branches cut by body_bound
    clear the completeness flag.
    """
    if body_bound < 1:
        raise BoundError("body_bound must be at least 1")
    walks: set[Walk] = set()
    complete = True

    def emit(ltail, letters, rtail):
        walks.add(canonicalize(bq, tuple(ltail), tuple(letters), tuple(rtail)))

    def grow(ltail, letters):
        nonlocal complete
        if len(letters) > body_bound:
            complete = False
            return
        conts = bq.successors[letters[-1]]
        if not conts:
            emit(ltail, letters, ())
            return
        for m in conts:
            last_at = None
            for j in range(len(letters) - 1, -1, -1):
                if letters[j] == m:
                    last_at = j
                    break
            if last_at is not None:
                unit = letters[last_at:]
                if len({s for _, s in unit}) == 1:
                    emit(ltail, letters[:last_at], tuple(unit))
                    continue  # prune winding past a tail state
            grow(ltail, letters + [m])

    seeds = []
    for v in sorted(bq.blossom_vertices):
        a = (bq.quiver.arrows_out[v] + bq.quiver.arrows_in[v])[0]
        letter = (a, 1) if bq.quiver.src[a] == v else (a, -1)
        seeds.append(((), [letter]))
    for c in primitive_cycles(bq):
        for sign in (1, -1):
            base = tuple((a, 1) for a in c) if sign > 0 else rev_word(tuple((a, 1) for a in c))
            k = len(base)
            for phase in range(k):
                unit = base[phase:] + base[:phase]
                for m in bq.successors[unit[-1]]:
                    if m == unit[0]:
                        continue  # staying in the tail
                    seeds.append((unit, [m]))
        unit = tuple((a, 1) for a in c)
        walks.add(canonicalize(bq, unit, (), unit))
    for ltail, letters in seeds:
        grow(ltail, letters)
    return sorted(walks, key=Walk.serialize), complete


# ---------------------------------------------------------------------------
# kissing: windows and the letter-by-letter pumping rule


@dataclass(frozen=True)
class Window:
    """A finite unrolling of a walk in its stored direction.

    letters[:left] are left-tail periods, letters[left:right] the body and
    letters[right:] right-tail periods.
    """

    walk: Walk
    letters: tuple[Letter, ...]
    left: int
    right: int

    @property
    def n(self) -> int:
        return len(self.letters)

    def tail(self, i: int) -> tuple[Letter, ...]:
        """The tail unit that letter i unrolls; () for a body letter."""
        if i < self.left:
            return self.walk.ltail
        return self.walk.rtail if i >= self.right else ()


def make_window(w: Walk, lperiods: int, rperiods: int) -> Window:
    left = len(w.ltail) * lperiods
    return Window(
        w, w.ltail * lperiods + w.body + w.rtail * rperiods, left, left + len(w.body)
    )


def _tail_periods_for_pair(w1: Walk, w2: Walk, extra: int = 0) -> tuple[int, int, int, int]:
    n = span(w1, w2)

    def periods(unit):
        return max(2, -(-n // len(unit))) + extra if unit else 0

    return tuple(periods(u) for u in (w1.ltail, w1.rtail, w2.ltail, w2.rtail))


def _alignments(o1: tuple[int, int], o2: tuple[int, int], win1: Window, win2: Window):
    """Index correspondences between matched content letters.

    Yields lists of (i1, i2) 0-based window positions; one list for the
    forward and possibly one for the reversed identification.
    """
    a1, b1 = o1
    a2, b2 = o2
    w1 = win1.letters[a1:b1]
    w2 = win2.letters[a2:b2]
    if not w1:
        yield []
        return
    if w1 == w2:
        yield [(a1 + i, a2 + i) for i in range(len(w1))]
    if w1 == rev_word(w2):
        yield [(a1 + i, b2 - 1 - i) for i in range(len(w1))]


def _is_pumpable(win1: Window, win2: Window, o1, o2) -> bool:
    """True if the matched pair can absorb a full common tail period.

    A kiss pair whose alignment runs through tail zones of both walks for at
    least lcm(period1, period2) consecutive letters recurs under tail
    unrolling; such pairs are identified with their shorter representative
    and not counted (see module docstring of the package README).
    """
    for pairs in _alignments(o1, o2, win1, win2):
        if not pairs:
            return False
        run = 0
        run_key = None
        for i1, i2 in pairs:
            u1, u2 = win1.tail(i1), win2.tail(i2)
            if u1 and u2:
                # a deletable stretch must stay inside a single tail per walk
                key = (i1 < win1.left, len(u1), i2 < win2.left, len(u2))
                if key != run_key:
                    run = 0
                    run_key = key
                run += 1
                if run >= math.lcm(len(u1), len(u2)):
                    return True
            else:
                run = 0
                run_key = None
    return False


def _occurrence_bounds(win: Window) -> tuple[int, int]:
    """Legal (a, b) range: 1 <= a <= b <= n-1 in 1-based letter indexing.

    This both excludes extreme letters of finite ends from substring content
    and guarantees boundary letters exist inside the window.
    """
    return 1, win.n - 1


class Occurrences:
    """Top/bottom substring occurrences of a walk inside a window."""

    def __init__(self, bq: BlossomQuiver, win: Window):
        self.win = win
        q = bq.quiver
        self.vertices = [q.tgt[a] if s > 0 else q.src[a] for a, s in win.letters]

    def word_key(self, a: int, b: int) -> tuple:
        word = self.win.letters[a:b]
        if not word:
            return ("@", self.vertices[a - 1])
        return min(word, rev_word(word))

    def collect(self, kind: str) -> dict[tuple, list[tuple[int, int]]]:
        """kind is 'top' (-,+ boundary) or 'bottom' (+,-)."""
        want = (-1, 1) if kind == "top" else (1, -1)
        lo, hi = _occurrence_bounds(self.win)
        out: dict[tuple, list[tuple[int, int]]] = {}
        for a in range(lo, hi + 1):
            if self.win.letters[a - 1][1] != want[0]:
                continue
            for b in range(a, hi + 1):
                if self.win.letters[b][1] != want[1]:
                    continue
                out.setdefault(self.word_key(a, b), []).append((a, b))
        return out


def matched_occurrences(bq: BlossomQuiver, w1, w2, extra: int = 0):
    """Windows of w1, w2 and every (top of w1, bottom of w2) pair of one word."""
    p1l, p1r, p2l, p2r = _tail_periods_for_pair(w1, w2, extra)
    win1 = make_window(w1, p1l, p1r)
    win2 = make_window(w2, p2l, p2r)
    tops = Occurrences(bq, win1).collect("top")
    bottoms = Occurrences(bq, win2).collect("bottom")
    pairs = [
        (o1, o2)
        for key, t_list in tops.items()
        for o1 in t_list
        for o2 in bottoms.get(key, ())
    ]
    return win1, win2, pairs


def raw_window_kiss_count(bq: BlossomQuiver, w1, w2, extra: int = 0) -> int:
    """Plain scan of all finite factor alignments inside the unrolled window."""
    return len(matched_occurrences(bq, w1, w2, extra)[2])


def window_scan_kiss_count(bq: BlossomQuiver, w1, w2, extra: int = 0) -> int:
    """The raw window scan with the pumping rule of `kiss_count` applied."""
    win1, win2, pairs = matched_occurrences(bq, w1, w2, extra)
    return sum(not _is_pumpable(win1, win2, o1, o2) for o1, o2 in pairs)


# ---------------------------------------------------------------------------
# kissing: the maximal-run scan over every start pair of the whole windows


def _all_run_hits(x1, x2):
    """Maximal common runs of x1 and x2 with boundary signs (-,+) and (+,-),
    every start pair of the two whole windows tried."""
    n1, n2 = len(x1), len(x2)
    starts: dict = {}
    for j in range(1, n2 - 1):
        if x2[j - 1][1] > 0:
            starts.setdefault(x2[j], []).append(j)
    for i in range(1, n1 - 1):
        if x1[i - 1][1] > 0:
            continue
        for j in starts.get(x1[i], ()):
            k = 1
            while i + k < n1 and j + k < n2 and x1[i + k] == x2[j + k]:
                k += 1
            if i + k < n1 and j + k < n2 and x1[i + k][1] > 0 and x2[j + k][1] < 0:
                yield i, j, k


def _window_corners(bq: BlossomQuiver, x, before: int) -> dict:
    """Multiplicity of each vertex between letters of signs (before, -before)."""
    out: dict = {}
    for p, q in zip(x, x[1:]):
        if p[1] == before and q[1] == -before:
            v = letter_tgt(bq, p)
            out[v] = out.get(v, 0) + 1
    return out


def reference_kiss_count(bq: BlossomQuiver, w1: Walk, w2: Walk) -> int:
    """kn(w1, w2) by the maximal-run scan over every start pair of the windows,
    with peaks and deeps counted over the whole unrolled windows."""
    if w1.is_straight or w2.is_straight:
        return 0
    p1l, p1r, p2l, p2r = _tail_periods_for_pair(w1, w2)
    win1 = make_window(w1, p1l, p1r)
    win2 = make_window(w2, p2l, p2r)
    n2 = win2.n
    peaks = _window_corners(bq, win1.letters, -1)
    deeps = _window_corners(bq, win2.letters, 1)
    count = sum(m * deeps.get(v, 0) for v, m in peaks.items())
    for i, j, k in _all_run_hits(win1.letters, win2.letters):
        if not _is_pumpable(win1, win2, (i, i + k), (j, j + k)):
            count += 1
    for i, j, k in _all_run_hits(win1.letters, rev_word(win2.letters)):
        if not _is_pumpable(win1, win2, (i, i + k), (n2 - j - k, n2 - j)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# countercurrent order: a letter-at-a-time reading


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


def reference_countercurrent_less(bq: BlossomQuiver, m: tuple, n: tuple, arrow: str) -> bool:
    """True iff m comes before n in the countercurrent order at the arrow.

    m and n are (walk, position) pairs.  Both walks are oriented so the marked occurrence reads as the
    arrow taken forwards, then compared letterwise outward from the mark.
    At the first disagreement on either side exactly one of the two leaves
    with the flow of the arrow; that one is the smaller.
    """
    (wm, pm), (wn, pn) = m, n
    lm = walk_letter(wm, pm)
    ln = walk_letter(wn, pn)
    if lm is None or lm[0] != arrow:
        raise NotMarked(f"m is not marked at {arrow!r}")
    if ln is None or ln[0] != arrow:
        raise NotMarked(f"n is not marked at {arrow!r}")
    if m == n or (wm == wn and wm.is_infinite_straight):
        raise SameMarkedWalk(f"cannot compare a marked walk with itself at {arrow!r}")
    sm = _stream(wm, pm, 1 if lm[1] == 1 else -1)
    sn = _stream(wn, pn, 1 if ln[1] == 1 else -1)
    limit = _agreement_limit(wm, wn)
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
                if x[1] == y[1]:
                    raise OrderError("split letters must take opposite directions")
                verdicts.append(x[1] == 1)
                break
        # loop exhaustion = infinite periodic agreement: uninformative side
    if not verdicts:
        raise SameMarkedWalk("marked walks agree on both sides")
    if len(verdicts) == 2 and verdicts[0] != verdicts[1]:
        raise KissingPair("countercurrent order undefined: the walks kiss")
    return verdicts[0]


# ---------------------------------------------------------------------------
# geometry: Fraction elimination and the pairwise polytope edge check


def fraction_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        pv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def fraction_wall_normal(shared, witness) -> tuple[Fraction, ...] | None:
    """A functional vanishing on the shared rays and positive on the witness."""
    d = len(witness)
    # solve shared . lambda = 0; nullspace should be 1-dimensional
    m = [[Fraction(x) for x in row] for row in shared]
    # gaussian elimination to row echelon
    pivots = []
    rank = 0
    for col in range(d):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    if rank != d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    lam = [Fraction(0)] * d
    lam[free] = Fraction(1)
    for r, col in enumerate(pivots):
        lam[col] = -m[r][free]
    val = sum(a * b for a, b in zip(lam, witness))
    if val == 0:
        return None
    if val < 0:
        lam = [-x for x in lam]
    return tuple(lam)


def pairwise_edge_report(vertices, halfspaces, g) -> list[str]:
    """Every vertex pair is an edge iff the flip graph joins the two facets.

    A pair spans an edge when the halfspaces tight at its midpoint have
    normals of rank d - 1: O(F^2 |U|) Fraction work, no simplicity assumed.
    """
    d = len(g.quiver.vertices)
    report = []
    flip_adj = {frozenset((e.source, e.target)) for e in g.edges}
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            mid = tuple(
                Fraction(a + b, 2) for a, b in zip(vertices[i], vertices[j])
            )
            tight = [
                normal
                for normal, bound in halfspaces
                if sum(a * b for a, b in zip(normal, mid)) == bound
            ]
            rank = fraction_rank(tight) if tight else 0
            is_edge = rank == d - 1
            if is_edge != (frozenset((i, j)) in flip_adj):
                report.append(
                    f"vertex adjacency of facets {i},{j} disagrees with the flip graph"
                )
    return report


def vf2_isomorphic(q1: BoundQuiver, q2: BoundQuiver) -> bool:
    """Quiver isomorphism via a generic VF2 matcher on an arrow-node digraph."""

    def encode(q: BoundQuiver) -> nx.DiGraph:
        g = nx.DiGraph()
        for v in q.vertices:
            g.add_node(("v", v), kind="vertex")
        for a, s, t in q.arrows:
            g.add_node(("a", a), kind="arrow")
            g.add_edge(("v", s), ("a", a), kind="src")
            g.add_edge(("a", a), ("v", t), kind="tgt")
        for a, b in q.relations:
            g.add_edge(("a", a), ("a", b), kind="rel")
        return g

    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        encode(q1),
        encode(q2),
        node_match=lambda x, y: x["kind"] == y["kind"],
        edge_match=lambda x, y: x["kind"] == y["kind"],
    )
    return matcher.is_isomorphic()


def _end_corner(h):
    return start_corner(next_face(h))


def union_find_corner_classes(s) -> dict:
    """The points of a surface model from union-find over its gluings.

    Maps each class, a frozenset of corners, to (kind, on the boundary):
    kind is green or red for v or f corners, and middle or blossom for a
    black class of four or one s and t corners.
    """
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for h in s.halfedges:
        find(start_corner(h))
        t = s.twin[h]
        if t is not None:
            parent[find(start_corner(h))] = find(_end_corner(t))
    members: dict = {}
    for h in s.halfedges:
        members.setdefault(find(start_corner(h)), set()).add(start_corner(h))
    boundary = {
        find(c)
        for h in s.halfedges
        if s.twin[h] is None
        for c in (start_corner(h), _end_corner(h))
    }
    out = {}
    for root, corners in members.items():
        kinds = {c[1] for c in corners}
        if kinds <= {"s", "t"}:
            kind = {4: "middle", 1: "blossom"}[len(corners)]
        else:
            (letter,) = kinds
            kind = {"v": "green", "f": "red"}[letter]
        out[frozenset(corners)] = (kind, root in boundary)
    return out


def all_roots_surface_key(s) -> tuple:
    """The surface key from a full breadth-first encoding at every rs root."""
    kind_letter = {"green": "V", "red": "F", "middle": "B", "blossom": "L"}
    letter = {}
    for corners, (kind, _) in union_find_corner_classes(s).items():
        for c in corners:
            letter[c] = kind_letter[kind]
    seen: set = set()
    keys = []
    for h in s.halfedges:
        if h in seen:
            continue
        comp = [h]
        seen.add(h)
        for cur in comp:
            for nb in (next_face(cur), s.twin[cur]):
                if nb is not None and nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
        keys.append(
            min(_encode_from(s, h0, letter) for h0 in comp if h0[1] == "rs")
        )
    return tuple(sorted(keys))


def _encode_from(s, h0, letter) -> tuple:
    ids = {h0: 0}
    order = [h0]
    for h in order:
        for nb in (next_face(h), s.twin[h]):
            if nb is not None and nb not in ids:
                ids[nb] = len(order)
                order.append(nb)
    enc = []
    for h in order:
        t = s.twin[h]
        enc.append((ids[next_face(h)], -1 if t is None else ids[t], letter[start_corner(h)]))
    return tuple(enc)
