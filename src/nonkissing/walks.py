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
    BoundError,
    GentleBranchViolation,
    GrowthNotClosed,
    IncompleteUniverse,
    NotCanonical,
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
    return tuple((a, -s) for a, s in reversed(word))


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


def serialize_letter(letter: Letter) -> str:
    return f"{letter[0]}{'+' if letter[1] > 0 else '-'}"


@dataclass(frozen=True)
class Walk:
    """Canonical undirected walk.

    Built by canonicalize(), which validates its word, or by
    enumerate_walks(), whose growth builds valid words by construction
    (the test `test_every_grown_walk_passes_validation` holds the check);
    a Walk built directly is not checked.
    """

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
    def corners(self) -> tuple[tuple[str, Letter], ...]:
        """(kind, letter) at each corner, kind 'peak' or 'deep' and letter the
        one that enters it, whose target is the corner's vertex.

        Corners can only occur where the sign changes, hence in the body or
        at an empty-body tail junction; tails themselves are straight.
        """
        seq = self.ltail[-1:] + self.body + self.rtail[:1]
        out = []
        for x, y in zip(seq, seq[1:]):
            if x[1] == -1 and y[1] == 1:
                out.append(("peak", x))
            elif x[1] == 1 and y[1] == -1:
                out.append(("deep", x))
        return tuple(out)

    @cached_property
    def period(self) -> int:
        """The lcm of the tail periods, 1 for a tail-free walk."""
        return math.lcm(*(len(u) for u in (self.ltail, self.rtail) if u))

    def window(self, n: int) -> Window:
        """The word unrolled for window length n (`_unrolled`), built once
        per length and kept on the walk; a tail-free walk has one window for
        every length."""
        key = n if self.ltail or self.rtail else 0
        win = self._windows.get(key)
        if win is None:
            win = self._windows[key] = Window(self, n)
        return win

    @cached_property
    def _windows(self) -> dict[int, Window]:
        # checked once per walk: the kernels read the stored tail zones
        form = (self.ltail, self.body, self.rtail)
        if _directed_canonical(*form) != form:
            raise NotCanonical(f"{self.serialize()} is not in directed canonical form")
        return {}

    def serialize(self) -> str:
        return self._serialized

    @cached_property
    def _serialized(self) -> str:
        return _serialize_form(self.ltail, self.body, self.rtail, serialize_letter)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Walk[{self.serialize()}]"


def _serialize_form(ltail, body, rtail, text) -> str:
    """The serialization of (ltail, body, rtail), with text(letter) per letter."""
    parts = []
    if ltail:
        parts.append("( " + " ".join(map(text, ltail)) + " )")
        parts.append("|")
    parts.extend(map(text, body))
    if rtail:
        parts.append("|")
        parts.append("( " + " ".join(map(text, rtail)) + " )")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# canonicalization


def _check_tail_unit(bq: BlossomQuiver, unit: tuple[Letter, ...]) -> None:
    """Return if unit is a tail unit of bq (`tail_units`), else raise the
    typed error that says why not: a primitive, closed, uniformly signed unit
    with legal pairs is the unit its first letter's straight ray spirals into."""
    if unit in bq.tail_units:
        return
    signs = {s for _, s in unit}
    if len(signs) != 1:
        raise ParseError(f"tail unit {unit} is not uniformly signed")
    # primitive: no smaller period
    k = len(unit)
    for p in range(1, k):
        if k % p == 0 and all(unit[i] == unit[i % p] for i in range(k)):
            raise ParseError(f"tail unit {unit} is a proper power")
    succ = bq.successors
    for i in range(k):
        if unit[(i + 1) % k] in succ.get(unit[i], ()):
            continue
        # the unit is uniformly signed, so the pair cannot cancel
        if pair_reason(bq, unit[i], unit[(i + 1) % k]) == "gap":
            raise ParseError(f"tail unit {unit} is not a closed cycle")
        raise RelationHit(
            f"tail cycle hits the ideal at {serialize_letter(unit[i])} "
            f"{serialize_letter(unit[(i + 1) % k])}"
        )


def _validate_word(bq: BlossomQuiver, ltail, body, rtail) -> None:
    if not (ltail or body or rtail):
        raise ParseError("empty walk")
    if ltail:
        _check_tail_unit(bq, ltail)
    if rtail:
        _check_tail_unit(bq, rtail)
    # _check_tail_unit has read each unit's pairs, across its wrap too
    window = tuple(ltail[-1:]) + tuple(body) + tuple(rtail[:1])
    succ = bq.successors
    for x, y in zip(window, window[1:]):
        if y in succ.get(x, ()):
            continue
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
        if v not in bq.blossom_vertices:
            raise NotMaximal(f"left end at {v!r} could be extended")
    if not rtail:
        last = body[-1] if body else ltail[-1]
        v = letter_tgt(bq, last)
        if v not in bq.blossom_vertices:
            raise NotMaximal(f"right end at {v!r} could be extended")


def _strip_minimal(ltail, body, rtail):
    """Absorb into each tail the body letters that continue its period.

    The body keeps body[i:j]; the left unit turns left by i letters and the
    right unit right by len(body) - j, so each stays in phase with the body.
    """
    ltail, body, rtail = tuple(ltail), tuple(body), tuple(rtail)
    i, j = 0, len(body)
    if ltail:
        k = len(ltail)
        while i < j and body[i] == ltail[i % k]:
            i += 1
        ltail = ltail[i % k :] + ltail[: i % k]
    if rtail:
        k = len(rtail)
        while j > i and body[j - 1] == rtail[(j - len(body) - 1) % k]:
            j -= 1
        turn = (len(body) - j) % k
        rtail = rtail[k - turn :] + rtail[: k - turn]
    return ltail, body[i:j], rtail


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
    return _choose(
        bq,
        _directed_canonical(ltail, body, rtail),
        _directed_canonical(rev_word(rtail), rev_word(body), rev_word(ltail)),
    )


def _choose(bq: BlossomQuiver, fwd: tuple, bwd: tuple) -> Walk:
    """The Walk of the directed canonical form with the smaller serialization.

    fwd and bwd are the directed canonical forms of one walk read forwards
    and backwards.  Only the kept Walk is built, and it keeps its text.
    """
    text = bq.letter_text.__getitem__
    fwd_text, bwd_text = _serialize_form(*fwd, text), _serialize_form(*bwd, text)
    form, kept = (fwd, fwd_text) if fwd_text <= bwd_text else (bwd, bwd_text)
    w = Walk(*form)
    w.__dict__["_serialized"] = kept  # primes the cached property
    return w


# ---------------------------------------------------------------------------
# straight walks, peaks and deeps


def _straight_ray(bq: BlossomQuiver, a: str, sign: int):
    """The straight ray from letter (a, sign) on: (letters, unit).

    Each step takes the one continuation of the same sign in the successor
    table: the relation-free next arrow (sign 1) or previous arrow (sign -1).
    letters is the ray up to its end, or up to the tail unit it spirals into.
    """
    succ = bq.successors
    letters: list[Letter] = []
    seen: dict[Letter, int] = {}
    x: Letter | None = (a, sign)
    while x not in seen:
        seen[x] = len(letters)
        letters.append(x)
        x = next((m for m in succ[x] if m[1] == sign), None)
        if x is None:
            return tuple(letters), ()
    j = seen[x]
    return tuple(letters[:j]), tuple(letters[j:])


def primitive_cycles(bq: BlossomQuiver) -> list[tuple[str, ...]]:
    """Relation-free oriented cycles, one canonical rotation each: the
    cycles of the blossoming's tail units (`tail_units`)."""
    return sorted({c for c, _ in bq.tail_units.values()})


def has_band(bq: BlossomQuiver) -> bool:
    """True if a closed cycle of letters changes sign: a band.

    With a band, its powers are legal bodies of every length, so no body
    bound completes the walk set.  Without one, a body longer than the
    successor table repeats a letter; a repeat across a change of sign would
    close a band, so it lies within a run of one sign, where growth closes a
    tail.  So no body is longer than the table."""
    succ = bq.successors
    for x in succ:
        seen, stack = set(), [m for m in succ[x] if m[1] != x[1]]
        while stack:
            y = stack.pop()
            if y == x:
                return True
            if y not in seen:
                seen.add(y)
                stack.extend(succ[y])
    return False


def _corner_walk(bq: BlossomQuiver, v: str, sign: int) -> Walk:
    """The walk whose only corner is at v, with both rays of the given sign."""
    if v not in bq.base.vertices:
        raise ParseError(f"{v!r} is not an original vertex")
    arrows = bq.quiver.arrows_out[v] if sign > 0 else bq.quiver.arrows_in[v]
    (left, lunit), (right, runit) = (_straight_ray(bq, a, sign) for a in sorted(arrows))
    return canonicalize(bq, rev_word(lunit), rev_word(left) + right, runit)


def peak_walk(bq: BlossomQuiver, v: str) -> Walk:
    """The unique walk whose only corner is a peak at v (arrows leave v)."""
    return _corner_walk(bq, v, 1)


def deep_walk(bq: BlossomQuiver, v: str) -> Walk:
    """The unique walk whose only corner is a deep at v (arrows enter v)."""
    return _corner_walk(bq, v, -1)


def deep_walks(bq: BlossomQuiver) -> dict[str, Walk]:
    """The deep walk of every original vertex."""
    return {v: deep_walk(bq, v) for v in bq.base.vertices}


def finite_straight_walks(bq: BlossomQuiver) -> list[Walk]:
    """Maximal relation-free paths between blossom leaves."""
    out = []
    for a, s, _ in bq.quiver.arrows:
        if s in bq.blossom_vertices:
            letters, unit = _straight_ray(bq, a, 1)
            if unit:
                # a cycle arrow entered from the leaf path has two
                # relation-free predecessors
                raise GentleBranchViolation(f"the straight path from leaf {s!r} winds into a cycle")
            out.append(canonicalize(bq, (), letters, ()))
    return sorted(set(out), key=Walk.serialize)


def infinite_straight_walks(bq: BlossomQuiver) -> list[Walk]:
    """The fully periodic walk of each primitive cycle, validated and built
    once: the cycle's lex-min rotation read along the arrows is directed
    canonical as it stands, and only its reverse is normalized."""
    out = []
    for c in primitive_cycles(bq):
        forward = tuple((a, 1) for a in c)  # the lex-min rotation
        _validate_word(bq, forward, (), forward)
        spun = rev_word(forward)
        out.append(_choose(bq, (forward, (), forward), _directed_canonical(spun, (), spun)))
    return sorted(out, key=lambda w: w.serialize())


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

    Each walk is grown from both of its ends: a finite end starts at the
    letter that leaves its leaf (`leaf_letter`), a spiral end at its tail
    unit (`tail_units`).  Growth is a tree, so each directed form is
    reached at most once, and it is directed canonical read either way: a
    left-tail start leaves the tail at once and a right tail closes at the
    only repeat inside a run of one sign, so no tail can absorb a body
    letter.  Growth carries the text of each prefix of the letters, read
    forwards and backwards, and each start fixes the pieces of its left
    tail, so a walk reached gets the serializations of both its directed
    forms from a few concatenations.  The first arrival builds the one Walk
    that `canonicalize` would return, in the direction with the smaller
    text: only that direction's form is built, and the Walk keeps its text.
    The reverse text waits in a pending set for the arrival from the other
    end.

    Growth builds valid words, so no word is validated again; the test
    `test_every_grown_walk_passes_validation` keeps the check.  A grown word
    passes each check of `_validate_word`, and so does its reverse, the
    form kept when its text is smaller: the pair table is closed under
    reversal and `tail_units` holds each unit read both ways.
    - Pairs.  Every appended letter is taken from `succ[last]`, the first
      letter after a left tail from `succ[unit[-1]]`, and a right tail closes
      at a letter m of `succ[last]`.  So every adjacent pair of
      `ltail[-1:] + body + rtail[:1]`, and of each tail read round its wrap,
      is a legal pair of the table the check reads.
    - Left tail.  A walk with one is grown from a key of `tail_units`.
    - Right tail.  letters[j:] closes at a repeat inside the trailing run of
      one sign, and the run holds no other repeat, since growth would have
      closed there.  It is a closed cycle of distinct letters of one sign
      with legal pairs.  A letter has at most one continuation of its own
      sign (the relation-free next or previous arrow), so the straight ray
      from letters[j] follows this cycle, and its unit is letters[j:].
      `tail_units` holds the unit of every letter's ray, so it holds letters[j:].
    - Tail-free left end.  Growth starts it at `leaf_letter[v]`, whose source
      is the blossom vertex v.
    - Tail-free right end.  Growth emits it when `succ[last]` is empty.  The
      blossoming is complete: every vertex that is not a leaf has two arrows
      in and two out, and `blossom` pairs its ins with its outs into a
      relation matching.  So a letter entering such a vertex has two
      continuations: the other arrow on the side it came in by, with the
      opposite sign, and the relation-free arrow on the far side, with its
      own sign.  Only a leaf leaves none, so the target of last is a blossom
      vertex.
    - A word holds at least one letter, so it is not empty.

    A set of texts loses nothing.  Serializations are injective on forms,
    as the walks are keyed by them.  And no walk that is not fully periodic
    equals its own reverse form: at its middle that would need a letter
    equal to its own inverse, or a pair x x⁻¹, which is unreduced.  So each
    such walk is reached twice, by two different forms.  Growth never
    reaches the fully periodic walks: `infinite_straight_walks` builds
    them, one per primitive cycle.
    """
    if body_bound < 1:
        raise BoundError("body_bound must be at least 1")
    succ = bq.successors
    walks: dict[str, Walk] = {}
    pending: set[str] = set()  # reverse texts not yet reached
    complete = True
    shared = {x: x for x in succ}  # one object per letter: stored forms copy none
    inverse = {x: shared[x[0], -x[1]] for x in succ}
    text = bq.letter_text.__getitem__
    ahead = {x: text(x) + " " for x in succ}  # a letter's text in a forward prefix
    back = {x: " " + text(inverse[x]) for x in succ}  # and in a reversed one

    def rev(word):
        return tuple(map(inverse.__getitem__, reversed(word)))

    def emit(fwd_text, bwd_text, ltail, letters, j):
        # the walk ltail | letters[:j] | letters[j:], no right tail at j == len(letters)
        if fwd_text in pending:
            pending.remove(fwd_text)
            return
        pending.add(bwd_text)
        body, rtail = tuple(letters[:j]), tuple(letters[j:])
        if fwd_text <= bwd_text:
            w = Walk(ltail, body, rtail)
        else:
            w, fwd_text = Walk(rev(rtail), rev(body), rev(ltail)), bwd_text
        w.__dict__["_serialized"] = fwd_text  # primes the cached property
        walks[fwd_text] = w

    def grow(root, letters, ft, bt, run):
        # letters[run:] is the trailing run of letters of one sign: repeating
        # a letter of it closes a tail unit, and repeating an earlier letter
        # closes a unit of mixed signs, which is no tail.  ft[k] is the text
        # of letters[:k], each letter followed by a space, and bt[k] the text
        # of their reverse, each letter preceded by one; root holds the left
        # tail and the pieces of its text that go before ft and after bt
        nonlocal complete
        ltail, lpre, bsuf = root
        last = letters[-1]
        conts = succ[last]
        n = len(letters)
        if not conts:
            emit(lpre + ft[n][:-1], bt[n][1:] + bsuf, ltail, letters, n)
            return
        for m in conts:
            if m[1] == last[1]:
                j = n - 1
                while j >= run and letters[j] != m:
                    j -= 1
                if j >= run:
                    f, b = ft[j], bt[j]
                    emit(
                        f"{lpre}{f}| ( {ft[n][len(f):]})",
                        f"({bt[n][: len(bt[n]) - len(b)]} ) |{b}{bsuf}",
                        ltail, letters, j,
                    )
                    continue  # prune winding past a tail state
            if n >= body_bound:
                complete = False
                continue
            letters.append(m)
            ft.append(ft[n] + ahead[m])
            bt.append(back[m] + bt[n])
            grow(root, letters, ft, bt, run if m[1] == last[1] else n)
            letters.pop()
            ft.pop()
            bt.pop()

    def start(root, first):
        grow(root, [first], ["", ahead[first]], ["", back[first]], 0)

    for v in sorted(bq.blossom_vertices):
        start(((), "", ""), bq.leaf_letter[v])
    for unit in bq.tail_units:
        lpre = _serialize_form(unit, (), (), text) + " "
        bsuf = " " + _serialize_form((), (), rev(unit), text)
        for m in succ[unit[-1]]:
            if m != unit[0]:  # unit[0] stays in the tail
                start((unit, lpre, bsuf), m)
    for w in infinite_straight_walks(bq):
        walks[w.serialize()] = w
    return [walks[k] for k in sorted(walks)], complete


def walk_universe(bq: BlossomQuiver, who: str) -> list[Walk]:
    """The complete walk set, or IncompleteUniverse naming the caller who
    if the blossoming has a band.  Without one no body is longer than the
    successor table (`has_band`), so growth past that length must close.
    """
    if has_band(bq):
        raise IncompleteUniverse(f"{who} needs the complete walk set")
    walks, complete = enumerate_walks(bq, len(bq.successors) + 1)
    if not complete:
        raise GrowthNotClosed(f"{who}: walk growth without a band was cut short")
    return walks


# ---------------------------------------------------------------------------
# kissing


def span(w1: Walk, w2: Walk) -> int:
    """Letters to read along w1 and w2 before their comparisons repeat.

    Past their bodies and a common multiple of their tail periods, two
    walks read side by side only repeat what was read; this sizes the kiss
    windows, the countercurrent comparison and the flip's split matching.
    """
    return len(w1.body) + len(w2.body) + 4 * math.lcm(w1.period, w2.period) + 6


def _unrolled(w: Walk, n: int):
    """w's word with each tail unrolled to at least n letters and two periods.

    Returns (word, start, end): word[start:end] is the body, word[:start]
    the left-tail periods and word[end:] the right-tail periods.
    """
    lt, rt = w.ltail, w.rtail
    lp = max(2, -(-n // len(lt))) if lt else 0
    rp = max(2, -(-n // len(rt))) if rt else 0
    start = len(lt) * lp
    return lt * lp + w.body + rt * rp, start, start + len(w.body)


def _run_starts(x: tuple[Letter, ...], end: int) -> dict[Letter, list[int]]:
    """Letter -> the positions j of x where a run can start as the second
    word: after a letter of sign +1, and not after a letter of x[end:]."""
    starts: dict[Letter, list[int]] = {}
    for j in range(1, min(len(x) - 1, end + 1)):
        if x[j - 1][1] > 0:
            starts.setdefault(x[j], []).append(j)
    return starts


class Window:
    """A walk's word unrolled for one window length, as `_unrolled` returns
    it, with its tail zones, (first, stop, period) each; `Walk.window`
    keeps one per length.

    The readings `kiss_count` scans are built on first use: the run starts
    of the word as the first word (`firsts`), and the word read forwards
    and reversed as the second word (`seconds`).  None depends on the
    blossoming.
    """

    __slots__ = ("word", "start", "end", "zones", "_firsts", "_seconds")

    def __init__(self, w: Walk, n: int):
        self.word, self.start, self.end = _unrolled(w, n)
        zones = [(0, self.start, len(w.ltail)), (self.end, len(self.word), len(w.rtail))]
        self.zones = [z for z in zones if z[2]]
        self._firsts = self._seconds = None

    def firsts(self) -> list[int]:
        """The positions where a run can start as the first word: after a
        letter of sign -1, and not after a letter of the right tail."""
        if self._firsts is None:
            x = self.word
            stop = min(len(x) - 1, self.end + 1)
            self._firsts = [i for i in range(1, stop) if x[i - 1][1] < 0]
        return self._firsts

    def seconds(self) -> tuple[tuple, tuple]:
        """(word, run-start dict, zones) of the word read forwards and of the
        word reversed, as the second word.  Reversed, the tail zones swap
        ends and the left tail runs on to the end.  The reversed word holds
        one inverse object per distinct letter, as the forward word does:
        the window keeps both for the life of its walk."""
        if self._seconds is None:
            x, start, end = self.word, self.start, self.end
            size = len(x)
            inverse = {letter: inv(letter) for letter in set(x)}
            rx = tuple(map(inverse.__getitem__, reversed(x)))
            rzones = [(size - b, size - a, p) for a, b, p in self.zones]
            self._seconds = (
                (x, _run_starts(x, end), self.zones),
                (rx, _run_starts(rx, size - start), rzones),
            )
        return self._seconds


def _pumped(i: int, j: int, k: int, zones1, zones2) -> bool:
    """True if the run x1[i:i+k] == x2[j:j+k] can absorb a full common tail period.

    It can when it lies, in step, inside a tail zone of each word for at
    least the lcm of the two periods: such a run recurs under tail
    unrolling, and is identified with its shorter representative.
    """
    d = i - j  # a position of x2 plus d is the matching position of x1
    for a1, b1, p1 in zones1:
        for a2, b2, p2 in zones2:
            if min(i + k, b1, b2 + d) - max(i, a1, a2 + d) >= math.lcm(p1, p2):
                return True
    return False


def _run_hits(x1: tuple[Letter, ...], firsts, x2: tuple[Letter, ...], starts):
    """Maximal common runs of x1 and x2 with boundary signs (-,+) and (+,-).

    firsts are x1's start positions (`Window.firsts`) and starts x2's
    run-start dict (`_run_starts`).  Yields (i, j, k):
    x1[i:i+k] == x2[j:j+k], k >= 1, with x1[i-1], x1[i+k] of signs -1, +1
    and x2[j-1], x2[j+k] of signs +1, -1.  The left boundary letters differ
    in sign, so each start pair begins a maximal run, and each run is
    extended once.  A run that starts after a letter of a tail of one sign
    running on to the end of its window could end only at a letter of the
    other sign, so it would reach the window's end and is never yielded:
    neither start list holds such starts.
    """
    n1, n2 = len(x1), len(x2)
    for i in firsts:
        for j in starts.get(x1[i], ()):
            k = 1
            while i + k < n1 and j + k < n2 and x1[i + k] == x2[j + k]:
                k += 1
            if i + k < n1 and j + k < n2 and x1[i + k][1] > 0 and x2[j + k][1] < 0:
                yield i, j, k


def kiss_count(bq: BlossomQuiver, w1: Walk, w2: Walk) -> int:
    """kn(w1, w2): kisses of w1 on w2, pump-periodic families counted once.

    A kiss is a common finite substring occurring on top of w1 and at the
    bottom of w2, counted per position pair.  Its boundary letters have
    opposite signs in the two walks, so a nonempty kiss is a maximal common
    run of the unrolled words, read forward or against the reversed second
    word; the empty kiss is a peak of w1 and a deep of w2 at one vertex.
    A run that overlaps a tail zone of each word for at least the lcm of
    their periods is pumped and not counted, so the count is finite and
    stable under unrolling further.  Both words are read off the walks'
    windows (`Walk.window`).

    w1 and w2 must be in directed canonical form, as `canonicalize` builds
    them and a `QuiverContext` interns them: the pumping rule reads the
    stored tail zones, so another form of a walk (a tail period unrolled
    into the body, say) could give another count.  Building a walk's first
    window raises NotCanonical on any other form.
    """
    if w1.is_straight or w2.is_straight:
        return 0  # a top or bottom occurrence needs a change of sign
    n = span(w1, w2)
    win1, win2 = w1.window(n), w2.window(n)
    x1, firsts, zones1 = win1.word, win1.firsts(), win1.zones
    deeps = [letter_tgt(bq, x) for kind, x in w2.corners if kind == "deep"]
    count = sum(deeps.count(letter_tgt(bq, x)) for kind, x in w1.corners if kind == "peak")
    for x2, starts, zones2 in win2.seconds():
        for i, j, k in _run_hits(x1, firsts, x2, starts):
            if not _pumped(i, j, k, zones1, zones2):
                count += 1
    return count


def kissing(bq: BlossomQuiver, w1: Walk, w2: Walk) -> bool:
    return kiss_count(bq, w1, w2) > 0 or kiss_count(bq, w2, w1) > 0


def kn_pair(bq: BlossomQuiver, w1: Walk, w2: Walk) -> int:
    """KN(w1, w2) = kn(w1, w2) + kn(w2, w1)."""
    return kiss_count(bq, w1, w2) + kiss_count(bq, w2, w1)


def total_kissing_number(kn, w, universe) -> int:
    """KN(w): the sum of kn(w, x) + kn(x, w) over the walks x of universe,
    x = w included.  kn is a kiss number such as `QuiverContext.kn`, and w
    and universe are what it reads: walk ids of a context, say."""
    return sum(kn(w, x) + kn(x, w) for x in universe)


# ---------------------------------------------------------------------------
# corners and helper views


def corner_profile(bq: BlossomQuiver, w: Walk) -> list[tuple[str, str]]:
    """Corners of the walk as (kind, vertex), kind 'peak' or 'deep': the
    vertices of `Walk.corners`."""
    return [(kind, letter_tgt(bq, x)) for kind, x in w.corners]


def tail_cycle(unit: tuple[Letter, ...]) -> tuple[tuple[str, ...], int]:
    """(cycle, sign) of a tail unit: its arrows read along the arrows, in
    their lex-min rotation, and its sign.  The blossoming keeps it for
    each of its units (`tail_units`)."""
    sign = unit[0][1]
    arrows = tuple(a for a, _ in unit)
    if sign < 0:
        arrows = arrows[::-1]
    return min(arrows[j:] + arrows[:j] for j in range(len(arrows))), sign


def walk_uses_cycle(w: Walk, cycle: tuple[str, ...]) -> bool:
    """True if some tail of w spins the given primitive cycle."""
    return any(unit and tail_cycle(unit)[0] == cycle for unit in (w.ltail, w.rtail))
