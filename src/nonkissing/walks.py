"""Strings and walks of a blossoming quiver, and the kissing machinery.

A walk is stored in canonical undirected form as (ltail, body, rtail):
the body is a finite word of signed letters, each tail an optional repeating
unit of uniform sign.  The full word is the bi-infinite concatenation
``...ltail ltail | body | rtail rtail...``.

Canonical form: the body is minimized by absorbing periodic prefixes and
suffixes into the tails (greedy, left side first); the fully periodic walk
(both tails equal, empty body) is rotated to the lexicographically least
unit; among the walk and its reverse the lexicographically smaller
serialization is kept.  Note: the body-minimal tail phase is used rather
than a lex-minimal phase for every tail, because lex-min phases do not give
an idempotent normal form; serializations are still unique per walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    IncompleteUniverse,
    NotMaximal,
    NotReduced,
    ParseError,
    RelationHit,
)
from .quiver import BlossomQuiver

Letter = tuple[str, int]  # (arrow id, +1 or -1)


def inv(letter: Letter) -> Letter:
    return (letter[0], -letter[1])


def rev_word(word: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple(inv(x) for x in reversed(word))


def letter_src(bq: BlossomQuiver, letter: Letter) -> str:
    a, s = letter
    return bq.quiver.src[a] if s > 0 else bq.quiver.tgt[a]


def letter_tgt(bq: BlossomQuiver, letter: Letter) -> str:
    a, s = letter
    return bq.quiver.tgt[a] if s > 0 else bq.quiver.src[a]


def pair_reason(bq: BlossomQuiver, l1: Letter, l2: Letter) -> str | None:
    """None if l1 l2 is a legal string factor, else why not."""
    if letter_tgt(bq, l1) != letter_src(bq, l2):
        return "gap"
    if l1[0] == l2[0] and l1[1] == -l2[1]:
        return "unreduced"
    if l1[1] > 0 and l2[1] > 0 and (l1[0], l2[0]) in bq.quiver.relations:
        return "relation"
    if l1[1] < 0 and l2[1] < 0 and (l2[0], l1[0]) in bq.quiver.relations:
        return "relation"
    return None


def pair_ok(bq: BlossomQuiver, l1: Letter, l2: Letter) -> bool:
    return pair_reason(bq, l1, l2) is None


def continuations(bq: BlossomQuiver, letter: Letter) -> list[Letter]:
    """Letters m with letter . m a legal factor; at most one of each sign."""
    v = letter_tgt(bq, letter)
    out = []
    for a in bq.quiver.arrows_out[v]:
        if pair_ok(bq, letter, (a, 1)):
            out.append((a, 1))
    for a in bq.quiver.arrows_in[v]:
        if pair_ok(bq, letter, (a, -1)):
            out.append((a, -1))
    return sorted(out)


def serialize_letter(letter: Letter) -> str:
    return f"{letter[0]}{'+' if letter[1] > 0 else '-'}"


def parse_letter(text: str) -> Letter:
    if len(text) < 2 or text[-1] not in "+-":
        raise ParseError(f"bad letter {text!r}")
    return (text[:-1], 1 if text[-1] == "+" else -1)


@dataclass(frozen=True)
class Walk:
    """Canonical undirected walk; construct only through canonicalize()."""

    ltail: tuple[Letter, ...]
    body: tuple[Letter, ...]
    rtail: tuple[Letter, ...]

    @cached_property
    def is_straight(self) -> bool:
        signs = {s for _, s in self.ltail + self.body + self.rtail}
        return len(signs) <= 1

    @cached_property
    def is_infinite_straight(self) -> bool:
        return bool(self.ltail) and not self.body and self.ltail == self.rtail

    @cached_property
    def is_finite(self) -> bool:
        return not self.ltail and not self.rtail

    def serialize(self) -> str:
        parts = []
        if self.ltail:
            parts.append("( " + " ".join(map(serialize_letter, self.ltail)) + " )")
            parts.append("|")
        parts.extend(map(serialize_letter, self.body))
        if self.rtail:
            parts.append("|")
            parts.append("( " + " ".join(map(serialize_letter, self.rtail)) + " )")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Walk[{self.serialize()}]"


def parse_walk(bq: BlossomQuiver, text: str) -> Walk:
    toks = text.split()
    ltail: list[Letter] = []
    body: list[Letter] = []
    rtail: list[Letter] = []
    mode = "start"
    cur = body
    tails_seen = 0
    for tok in toks:
        if tok == "(":
            if mode not in ("start", "after-bar"):
                raise ParseError("unexpected ( in walk")
            cur = ltail if tails_seen == 0 and not body and mode == "start" else rtail
            mode = "tail"
        elif tok == ")":
            if mode != "tail":
                raise ParseError("unexpected ) in walk")
            tails_seen += 1
            mode = "after-tail"
        elif tok == "|":
            if mode not in ("after-tail", "body", "after-bar"):
                raise ParseError("unexpected | in walk")
            cur = body
            mode = "after-bar"
        else:
            letter = parse_letter(tok)
            if mode in ("start", "after-bar", "body"):
                body.append(letter)
                mode = "body"
            elif mode == "tail":
                cur.append(letter)
            else:
                raise ParseError(f"unexpected token {tok!r}")
    return canonicalize(bq, tuple(ltail), tuple(body), tuple(rtail))


# ---------------------------------------------------------------------------
# canonicalization


def _check_tail_unit(bq: BlossomQuiver, unit: tuple[Letter, ...]) -> None:
    signs = {s for _, s in unit}
    if len(signs) != 1:
        raise ParseError(f"tail unit {unit} is not uniformly signed")
    # primitive: no smaller period
    k = len(unit)
    for p in range(1, k):
        if k % p == 0 and all(unit[i] == unit[i % p] for i in range(k)):
            raise ParseError(f"tail unit {unit} is a proper power")
    for i in range(k):
        reason = pair_reason(bq, unit[i], unit[(i + 1) % k])
        if reason == "gap":
            raise ParseError(f"tail unit {unit} is not a closed cycle")
        if reason == "relation":
            raise RelationHit(
                f"tail cycle hits the ideal at {serialize_letter(unit[i])} "
                f"{serialize_letter(unit[(i + 1) % k])}"
            )
        if reason == "unreduced":
            raise NotReduced(f"tail unit {unit} is not reduced")


def _validate_word(bq: BlossomQuiver, ltail, body, rtail) -> None:
    if not (ltail or body or rtail):
        raise ParseError("empty walk")
    if ltail:
        _check_tail_unit(bq, ltail)
    if rtail:
        _check_tail_unit(bq, rtail)
    window = tuple(ltail) * 2 + tuple(body) + tuple(rtail) * 2
    for x, y in zip(window, window[1:]):
        reason = pair_reason(bq, x, y)
        if reason == "gap":
            raise ParseError(
                f"letters {serialize_letter(x)} {serialize_letter(y)} do not compose"
            )
        if reason == "unreduced":
            raise NotReduced(
                f"factor {serialize_letter(x)} {serialize_letter(y)} cancels"
            )
        if reason == "relation":
            raise RelationHit(
                f"factor {serialize_letter(x)} {serialize_letter(y)} lies in the ideal"
            )
    if not ltail:
        first = body[0] if body else rtail[0]
        v = letter_src(bq, first)
        if not bq.is_blossom_vertex(v):
            raise NotMaximal(f"left end at {v!r} could be extended")
    if not rtail:
        last = body[-1] if body else ltail[-1]
        v = letter_tgt(bq, last)
        if not bq.is_blossom_vertex(v):
            raise NotMaximal(f"right end at {v!r} could be extended")


def _strip_minimal(ltail, body, rtail):
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


def _directed_canonical(ltail, body, rtail):
    ltail, body, rtail = _strip_minimal(ltail, body, rtail)
    if ltail and not body and ltail == rtail:
        # fully periodic walk: lex-min rotation of the unit
        k = len(ltail)
        best = min(ltail[j:] + ltail[:j] for j in range(k))
        ltail = rtail = best
    return ltail, body, rtail


def canonicalize(
    bq: BlossomQuiver,
    ltail: tuple[Letter, ...] = (),
    body: tuple[Letter, ...] = (),
    rtail: tuple[Letter, ...] = (),
) -> Walk:
    """Validate and normalize a walk given in any representation."""
    _validate_word(bq, ltail, body, rtail)
    fwd = _directed_canonical(ltail, body, rtail)
    bwd = _directed_canonical(rev_word(rtail), rev_word(body), rev_word(ltail))
    wa, wb = Walk(*fwd), Walk(*bwd)
    return wa if wa.serialize() <= wb.serialize() else wb


def reverse_walk(w: Walk) -> tuple:
    return (rev_word(w.rtail), rev_word(w.body), rev_word(w.ltail))


# ---------------------------------------------------------------------------
# straight walks, peaks and deeps


def straight_next(bq: BlossomQuiver, a: str) -> str | None:
    """The unique relation-free forward continuation of arrow a, if any."""
    for b in bq.quiver.arrows_out[bq.quiver.tgt[a]]:
        if (a, b) not in bq.quiver.relations:
            return b
    return None


def straight_prev(bq: BlossomQuiver, a: str) -> str | None:
    for b in bq.quiver.arrows_in[bq.quiver.src[a]]:
        if (b, a) not in bq.quiver.relations:
            return b
    return None


def primitive_cycles(bq: BlossomQuiver) -> list[tuple[str, ...]]:
    """Relation-free oriented cycles, one canonical rotation each."""
    seen: set[str] = set()
    cycles = []
    for a in bq.quiver.arrow_ids:
        if a in seen or bq.is_blossom_arrow(a):
            continue
        orbit = [a]
        cur = a
        while True:
            nxt = straight_next(bq, cur)
            if nxt is None or bq.is_blossom_arrow(nxt):
                orbit = None
                break
            if nxt == a:
                break
            if nxt in orbit:
                orbit = None
                break
            orbit.append(nxt)
            cur = nxt
        if orbit is None:
            continue
        seen.update(orbit)
        k = len(orbit)
        best = min(tuple(orbit[j:] + orbit[:j]) for j in range(k))
        cycles.append(best)
    return sorted(cycles)


def _forward_ray(bq: BlossomQuiver, a: str):
    """Straight extension forward through arrow a: (letters, rtail unit)."""
    letters: list[Letter] = []
    seen: dict[str, int] = {}
    cur = a
    while True:
        if cur in seen:
            j = seen[cur]
            unit = tuple(letters[j:])
            return tuple(letters[:j]), unit
        seen[cur] = len(letters)
        letters.append((cur, 1))
        nxt = straight_next(bq, cur)
        if nxt is None:
            return tuple(letters), ()
        cur = nxt


def _backward_ray(bq: BlossomQuiver, a: str):
    """Straight extension backward through arrow a.

    Returns (letters, lunit): letters in forward word order ending at a,
    lunit the repeating unit when the extension spirals into a cycle.
    """
    found: list[str] = []  # arrows in backward discovery order
    seen: dict[str, int] = {}
    cur = a
    while True:
        if cur in seen:
            j = seen[cur]
            unit = tuple((x, 1) for x in reversed(found[j:]))
            letters = tuple((x, 1) for x in reversed(found[:j]))
            return letters, unit
        seen[cur] = len(found)
        found.append(cur)
        prv = straight_prev(bq, cur)
        if prv is None:
            return tuple((x, 1) for x in reversed(found)), ()
        cur = prv


def peak_walk(bq: BlossomQuiver, v: str) -> Walk:
    """The unique walk whose only corner is a peak at v (arrows leave v)."""
    assert v in bq.base.vertices, f"{v!r} is not an original vertex"
    o1, o2 = sorted(bq.quiver.arrows_out[v])
    left_letters, left_unit = _forward_ray(bq, o1)
    right_letters, right_unit = _forward_ray(bq, o2)
    ltail = rev_word(left_unit) if left_unit else ()
    body = rev_word(left_letters) + right_letters
    rtail = right_unit
    return canonicalize(bq, ltail, body, rtail)


def deep_walk(bq: BlossomQuiver, v: str) -> Walk:
    """The unique walk whose only corner is a deep at v (arrows enter v)."""
    assert v in bq.base.vertices, f"{v!r} is not an original vertex"
    i1, i2 = sorted(bq.quiver.arrows_in[v])
    lpart, lunit = _backward_ray(bq, i1)
    rpart_rev, runit_rev = _backward_ray(bq, i2)
    body = lpart + rev_word(rpart_rev)
    ltail = lunit
    rtail = rev_word(runit_rev) if runit_rev else ()
    return canonicalize(bq, ltail, body, rtail)


def finite_straight_walks(bq: BlossomQuiver) -> list[Walk]:
    """Maximal relation-free paths between blossom leaves."""
    out = []
    for a, s, _ in bq.quiver.arrows:
        if s in bq.blossom_vertices:
            letters, unit = _forward_ray(bq, a)
            assert not unit, "a path starting at a leaf cannot cycle"
            out.append(canonicalize(bq, (), letters, ()))
    return sorted(set(out), key=Walk.serialize)


def infinite_straight_walks(bq: BlossomQuiver) -> list[Walk]:
    out = []
    for c in primitive_cycles(bq):
        unit = tuple((a, 1) for a in c)
        out.append(canonicalize(bq, unit, (), unit))
    return sorted(set(out), key=Walk.serialize)


def straight_walks(bq: BlossomQuiver) -> list[Walk]:
    return sorted(
        finite_straight_walks(bq) + infinite_straight_walks(bq), key=Walk.serialize
    )


# ---------------------------------------------------------------------------
# enumeration


def enumerate_walks(bq: BlossomQuiver, body_bound: int = 64):
    """All canonical walks with body length <= body_bound.

    Returns (walks, complete).  Branches that would re-enter a letter state
    already spun into a tail are pruned silently (cycle-rewinding walks are
    excluded from the universe by design); only branches cut by body_bound
    clear the completeness flag.
    """
    assert body_bound >= 1
    walks: set[Walk] = set()
    complete = True

    def emit(ltail, letters, rtail):
        walks.add(canonicalize(bq, tuple(ltail), tuple(letters), tuple(rtail)))

    def grow(ltail, letters):
        nonlocal complete
        if len(letters) > body_bound:
            complete = False
            return
        conts = continuations(bq, letters[-1])
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
                for m in continuations(bq, unit[-1]):
                    if m == unit[0]:
                        continue  # staying in the tail
                    seeds.append((unit, [m]))
        unit = tuple((a, 1) for a in c)
        walks.add(canonicalize(bq, unit, (), unit))
    for ltail, letters in seeds:
        grow(ltail, letters)
    return sorted(walks, key=Walk.serialize), complete


# ---------------------------------------------------------------------------
# windows, occurrences, kissing


@dataclass(frozen=True)
class Window:
    """A finite unrolling of a walk: letters plus zone tags.

    zone[i] is ("L", d), ("B", i) or ("R", d) with d >= 1 the period depth,
    d = 1 adjacent to the body.  Positions follow the stored direction.
    """

    walk: Walk
    letters: tuple[Letter, ...]
    zone: tuple[tuple[str, int], ...]

    @property
    def n(self) -> int:
        return len(self.letters)


def make_window(w: Walk, lperiods: int, rperiods: int) -> Window:
    letters: list[Letter] = []
    zone: list[tuple[str, int]] = []
    if w.ltail:
        for d in range(lperiods, 0, -1):
            for x in w.ltail:
                letters.append(x)
                zone.append(("L", d))
    for i, x in enumerate(w.body):
        letters.append(x)
        zone.append(("B", i))
    if w.rtail:
        for d in range(1, rperiods + 1):
            for x in w.rtail:
                letters.append(x)
                zone.append(("R", d))
    return Window(w, tuple(letters), tuple(zone))


def _occurrence_bounds(win: Window) -> tuple[int, int]:
    """Legal (a, b) range: 1 <= a <= b <= n-1 in 1-based letter indexing.

    This both excludes extreme letters of finite ends from substring content
    and guarantees boundary letters exist inside the window.
    """
    return 1, win.n - 1


class Occurrences:
    """Top/bottom substring occurrences of a walk inside a window."""

    def __init__(self, bq: BlossomQuiver, win: Window):
        self.bq = bq
        self.win = win
        self.vertices = [letter_tgt(bq, x) for x in win.letters]

    def vertex_after(self, a: int) -> str:
        return self.vertices[a - 1]

    def word_key(self, a: int, b: int) -> tuple:
        word = self.win.letters[a:b]
        if not word:
            return ("@", self.vertex_after(a))
        return min(word, rev_word(word))

    def boundary_signs(self, a: int, b: int) -> tuple[int, int]:
        return self.win.letters[a - 1][1], self.win.letters[b][1]

    def collect(self, kind: str) -> dict[tuple, list[tuple[int, int]]]:
        """kind is 'top' (-,+ boundary) or 'bottom' (+,-)."""
        want = (-1, 1) if kind == "top" else (1, -1)
        lo, hi = _occurrence_bounds(self.win)
        out: dict[tuple, list[tuple[int, int]]] = {}
        n = self.win.n
        for a in range(lo, hi + 1):
            if self.win.letters[a - 1][1] != want[0]:
                continue
            for b in range(a, hi + 1):
                if self.win.letters[b][1] != want[1]:
                    continue
                out.setdefault(self.word_key(a, b), []).append((a, b))
        return out


def _tail_periods_for_pair(w1: Walk, w2: Walk, extra: int = 0) -> tuple[int, int, int, int]:
    units = [len(u) for u in (w1.ltail, w1.rtail, w2.ltail, w2.rtail) if u]
    lcm = 1
    for u in units:
        lcm = lcm * u // math.gcd(lcm, u)
    span = len(w1.body) + len(w2.body) + 4 * lcm + 6

    def periods(unit):
        if not unit:
            return 0
        return max(2, -(-span // len(unit))) + extra

    return (
        periods(w1.ltail),
        periods(w1.rtail),
        periods(w2.ltail),
        periods(w2.rtail),
    )


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
            z1 = win1.zone[i1][0]
            z2 = win2.zone[i2][0]
            if z1 in ("L", "R") and z2 in ("L", "R"):
                # a deletable stretch must stay inside a single tail per walk
                p1 = len(win1.walk.ltail if z1 == "L" else win1.walk.rtail)
                p2 = len(win2.walk.ltail if z2 == "L" else win2.walk.rtail)
                if (z1, p1, z2, p2) != run_key:
                    run = 0
                    run_key = (z1, p1, z2, p2)
                run += 1
                if run >= p1 * p2 // math.gcd(p1, p2):
                    return True
            else:
                run = 0
                run_key = None
    return False


def kiss_count(bq: BlossomQuiver, w1: Walk, w2: Walk, unroll_extra: int = 0) -> int:
    """kn(w1, w2): kisses of w1 on w2, pump-periodic families counted once.

    A kiss is a common finite substring occurring on top of w1 and at the
    bottom of w2, counted per position pair.  Pairs absorbable into parallel
    tail periods of both walks are pruned so the count is finite and stable
    under window growth.
    """
    p1l, p1r, p2l, p2r = _tail_periods_for_pair(w1, w2, unroll_extra)
    win1 = make_window(w1, p1l, p1r)
    win2 = make_window(w2, p2l, p2r)
    occ1 = Occurrences(bq, win1)
    occ2 = Occurrences(bq, win2)
    tops = occ1.collect("top")
    bottoms = occ2.collect("bottom")
    count = 0
    for key, t_list in tops.items():
        b_list = bottoms.get(key)
        if not b_list:
            continue
        for o1 in t_list:
            for o2 in b_list:
                if not _is_pumpable(win1, win2, o1, o2):
                    count += 1
    return count


def kissing(bq: BlossomQuiver, w1: Walk, w2: Walk) -> bool:
    return kiss_count(bq, w1, w2) > 0 or kiss_count(bq, w2, w1) > 0


def kn_pair(bq: BlossomQuiver, w1: Walk, w2: Walk) -> int:
    """KN(w1, w2) = kn(w1, w2) + kn(w2, w1)."""
    return kiss_count(bq, w1, w2) + kiss_count(bq, w2, w1)


def total_kissing_number(
    bq: BlossomQuiver, w: Walk, universe: list[Walk], complete: bool = True
) -> int:
    """KN(w): sum of KN(w, w') over the complete walk universe, w' = w included."""
    if not complete:
        raise IncompleteUniverse("total kissing number needs the complete walk set")
    return sum(kn_pair(bq, w, other) for other in universe)


# ---------------------------------------------------------------------------
# corners and helper views


def corner_profile(bq: BlossomQuiver, w: Walk) -> list[tuple[str, str]]:
    """Corners of the walk as (kind, vertex), kind 'peak' or 'deep'.

    Corners can only occur where the sign changes, hence in the body or at
    an empty-body tail junction; tails themselves are straight.
    """
    seq: list[Letter] = []
    if w.ltail:
        seq.append(w.ltail[-1])
    seq.extend(w.body)
    if w.rtail:
        seq.append(w.rtail[0])
    out = []
    for x, y in zip(seq, seq[1:]):
        if x[1] == -1 and y[1] == 1:
            out.append(("peak", letter_tgt(bq, x)))
        elif x[1] == 1 and y[1] == -1:
            out.append(("deep", letter_tgt(bq, x)))
    return out


def is_bending(w: Walk) -> bool:
    return not w.is_straight


def walk_uses_cycle(w: Walk, cycle: tuple[str, ...]) -> bool:
    """True if some tail of w spins the given primitive cycle."""
    for unit in (w.ltail, w.rtail):
        if not unit or len(unit) != len(cycle):
            continue
        arrows = tuple(a for a, _ in unit)
        if unit[0][1] < 0:
            arrows = tuple(reversed(arrows))
        k = len(cycle)
        if any(arrows[j:] + arrows[:j] == cycle for j in range(k)):
            return True
    return False
