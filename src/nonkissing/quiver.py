"""Locally gentle bound quivers: validation, blossoming, pruning, Koszul duality.

A bound quiver is a finite quiver together with a set of length-two
relations.  All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DegreeViolation,
    GentleBranchViolation,
    NonComposableRelation,
    NotComplete,
    ParseError,
)

# whitespace (on str patterns \s matches exactly the str.isspace characters)
# and the characters the walk syntax reserves
_FORBIDDEN_ID_CHAR = re.compile(r'[\s()|"]')


def _check_id(kind: str, ident: object) -> str:
    if not isinstance(ident, str) or not ident:
        raise ParseError(f"{kind} id must be a nonempty string, got {ident!r}")
    if _FORBIDDEN_ID_CHAR.search(ident):
        raise ParseError(f"{kind} id {ident!r} contains whitespace or a reserved character")
    return ident


@dataclass(frozen=True)
class BoundQuiver:
    """A finite quiver with length-two relations.

    vertices: sorted vertex ids (also the coordinate order for integer vectors).
    arrows: mapping-like tuple of (id, src, tgt), sorted by id.
    relations: frozenset of composable pairs (a, b) meaning the path a then b
    lies in the ideal.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    relations: frozenset[tuple[str, str]]

    @cached_property
    def arrow_ids(self) -> tuple[str, ...]:
        return tuple(a for a, _, _ in self.arrows)

    @cached_property
    def src(self) -> dict[str, str]:
        return {a: s for a, s, _ in self.arrows}

    @cached_property
    def tgt(self) -> dict[str, str]:
        return {a: t for a, _, t in self.arrows}

    @cached_property
    def arrows_out(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, s, _ in self.arrows:
            out[s].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    @cached_property
    def arrows_in(self) -> dict[str, tuple[str, ...]]:
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, _, t in self.arrows:
            inc[t].append(a)
        return {v: tuple(lst) for v, lst in inc.items()}

    def degree(self, v: str) -> int:
        return len(self.arrows_in[v]) + len(self.arrows_out[v])

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a, "src": s, "tgt": t} for a, s, t in self.arrows],
            "relations": sorted([a, b] for a, b in self.relations),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class BlossomQuiver:
    """A complete quiver together with the base it blossomed from.

    quiver is itself a valid BoundQuiver in which every vertex has total
    degree 1 (a blossom leaf) or 4.
    """

    quiver: BoundQuiver
    base: BoundQuiver
    blossom_vertices: frozenset[str]
    blossom_arrows: frozenset[str]

    @cached_property
    def leaf_letter(self) -> dict[str, tuple[str, int]]:
        """The letter that leaves each blossom leaf, along its unique arrow."""
        out = {}
        for v in self.blossom_vertices:
            arrows = self.quiver.arrows_in[v] + self.quiver.arrows_out[v]
            if len(arrows) != 1:
                raise NotComplete(f"blossom leaf {v!r} has {len(arrows)} arrows, not 1")
            out[v] = (arrows[0], 1 if self.quiver.src[arrows[0]] == v else -1)
        return out

    @cached_property
    def successors(self) -> dict[tuple[str, int], tuple[tuple[str, int], ...]]:
        """Each signed letter's legal continuations, sorted.

        walks.pair_reason decides legality; the table only stores its
        verdicts, so walk growth and validation read one dict lookup.
        """
        # function-local: walks imports this module
        from .walks import letter_tgt, pair_reason

        q = self.quiver
        table = {}
        for a in q.arrow_ids:
            for x in ((a, 1), (a, -1)):
                v = letter_tgt(self, x)
                options = [(b, 1) for b in q.arrows_out[v]] + [(b, -1) for b in q.arrows_in[v]]
                table[x] = tuple(sorted(m for m in options if pair_reason(self, x, m) is None))
        return table

    @cached_property
    def letter_text(self) -> dict[tuple[str, int], str]:
        """walks.serialize_letter of each signed letter."""
        from .walks import serialize_letter

        return {x: serialize_letter(x) for x in self.successors}

    @cached_property
    def tail_units(self) -> dict[tuple[tuple[str, int], ...], tuple[tuple[str, ...], int]]:
        """Each tail unit a walk can spiral into, with its `walks.tail_cycle`.

        A straight ray from a letter of a relation-free oriented cycle spirals
        into the rotation that starts there, so the rays' units are every
        rotation of every such cycle, read along its arrows and against them.
        """
        from .walks import _straight_ray, tail_cycle

        units = {u for x in self.successors if (u := _straight_ray(self, *x)[1])}
        return {u: tail_cycle(u) for u in sorted(units)}


def quiver_from_dict(data: object) -> BoundQuiver:
    """Parse and validate the JSON quiver format (strict: unknown fields rejected)."""
    if not isinstance(data, dict):
        raise ParseError("quiver document must be a JSON object")
    extra = set(data) - {"vertices", "arrows", "relations"}
    if extra:
        raise ParseError(f"unknown fields in quiver document: {sorted(extra)}")
    try:
        raw_vertices = data["vertices"]
        raw_arrows = data["arrows"]
        raw_relations = data.get("relations", [])
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    for field in ("vertices", "arrows", "relations"):
        if not isinstance(data.get(field, []), list):
            raise ParseError(f"{field} must be a list, got {data[field]!r}")
    vertices = []
    seen = set()
    for v in raw_vertices:
        _check_id("vertex", v)
        if v in seen:
            raise ParseError(f"duplicate vertex id {v!r}")
        seen.add(v)
        vertices.append(v)
    arrows = []
    aseen = set()
    for item in raw_arrows:
        if not isinstance(item, dict) or set(item) != {"id", "src", "tgt"}:
            raise ParseError(f"arrow entries must be objects with id/src/tgt, got {item!r}")
        a = _check_id("arrow", item["id"])
        if a in aseen:
            raise ParseError(f"duplicate arrow id {a!r}")
        aseen.add(a)
        src, tgt = item["src"], item["tgt"]
        if not (isinstance(src, str) and isinstance(tgt, str) and src in seen and tgt in seen):
            raise ParseError(f"arrow {a!r} references unknown vertex")
        arrows.append((a, src, tgt))
    relations = set()
    for pair in raw_relations:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ParseError(f"relation entries must be pairs, got {pair!r}")
        a, b = pair
        if not (isinstance(a, str) and isinstance(b, str) and a in aseen and b in aseen):
            raise ParseError(f"relation {pair!r} references unknown arrow")
        relations.add((a, b))
    q = BoundQuiver(
        vertices=tuple(sorted(vertices)),
        arrows=tuple(sorted(arrows)),
        relations=frozenset(relations),
    )
    return validate_locally_gentle(q)


def quiver_from_json(text: str) -> BoundQuiver:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return quiver_from_dict(data)


def validate_locally_gentle(q: BoundQuiver) -> BoundQuiver:
    """Check the three locally-gentle conditions, returning q unchanged.

    Raises DegreeViolation, NonComposableRelation or GentleBranchViolation
    naming the offending vertex or arrow.  Quivers are checked only where they
    enter (`quiver_from_dict`, `make_quiver`, `quiver_from_surface`).
    """
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


def make_quiver(vertices, arrows, relations=()) -> BoundQuiver:
    """Convenience constructor; validates."""
    q = BoundQuiver(
        vertices=tuple(sorted(vertices)),
        arrows=tuple(sorted(tuple(a) for a in arrows)),
        relations=frozenset(tuple(r) for r in relations),
    )
    for a, b in q.relations:
        if a not in q.src or b not in q.src:
            raise ParseError(f"relation ({a!r},{b!r}) references unknown arrow")
    return validate_locally_gentle(q)


def _fresh_id(base: str, used: set[str]) -> str:
    ident = base
    while ident in used:
        ident += "'"
    used.add(ident)
    return ident


def blossom(q: BoundQuiver) -> BlossomQuiver:
    """Complete q by adding blossom vertices and arrows, extending the ideal.

    Vertex by vertex, each free slot, incoming first, gets a leaf and an
    arrow named `v+in{k}` or `v+out{k}`, primed while taken.  The slots then
    pair into the relation matching, parallel or crossed in arrow-id order,
    that keeps the given relations at v; its complement is relation-free.
    q must be locally gentle; it is not checked here.
    """
    used_v = set(q.vertices)
    used_a = set(q.arrow_ids)
    relations = set(q.relations)
    new_vertices: list[str] = []
    new_arrows: list[tuple[str, str, str]] = []
    for v in q.vertices:
        ins, outs = sorted(q.arrows_in[v]), sorted(q.arrows_out[v])
        for side, slots in (("in", ins), ("out", outs)):
            for k in range(1, 3 - len(slots)):
                bv = _fresh_id(f"{v}+{side}{k}", used_v)
                ba = _fresh_id(f"{v}+{side}{k}", used_a)
                new_vertices.append(bv)
                new_arrows.append((ba, bv, v) if side == "in" else (ba, v, bv))
                slots.append(ba)
        (i0, i1), (o0, o1) = ins, outs
        given = {(a, b) for a in q.arrows_in[v] for b in q.arrows_out[v]}
        for m in ({(i0, o0), (i1, o1)}, {(i0, o1), (i1, o0)}):  # parallel, crossed
            if m & given == q.relations & given:
                break
        else:
            raise NotComplete(f"no consistent relation completion at vertex {v!r}")
        relations |= m
    bq = BoundQuiver(
        vertices=tuple(sorted([*q.vertices, *new_vertices])),
        arrows=tuple(sorted([*q.arrows, *new_arrows])),
        relations=frozenset(relations),
    )
    return BlossomQuiver(
        quiver=bq,
        base=q,
        blossom_vertices=frozenset(new_vertices),
        blossom_arrows=frozenset(a for a, _, _ in new_arrows),
    )


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


def koszul_dual(q: BoundQuiver) -> BoundQuiver:
    """Reverse all arrows and complement the relations over composable pairs.
    q must be locally gentle (not checked); then so is its dual."""
    arrows = tuple(sorted((a, t, s) for a, s, t in q.arrows))
    relations = set()
    for a in q.arrow_ids:
        for b in q.arrows_out[q.tgt[a]]:
            if (a, b) not in q.relations:
                relations.add((b, a))
    return BoundQuiver(
        vertices=q.vertices,
        arrows=arrows,
        relations=frozenset(relations),
    )


# ---------------------------------------------------------------------------
# canonical labeling and isomorphism


def canonical_key(q: BoundQuiver) -> tuple:
    """Canonical form of the locally gentle quiver q under relabeling.

    Isomorphism classes of locally gentle bound quivers are in bijection with
    homeomorphism classes of marked surfaces carrying a pair of dual
    dissections, and `quiver_from_surface` reads q back off its surface.  So
    two quivers are isomorphic exactly when their typed half-edge maps are,
    and the key is the canonical form of the surface of q.
    """
    # function-local: surface imports this module
    from .surface import surface_from_quiver

    return surface_from_quiver(q).canonical_key()


def is_isomorphic(q1: BoundQuiver, q2: BoundQuiver) -> bool:
    """Whether q1 and q2 differ only by a relabeling of vertices and arrows.

    Equal quivers are isomorphic, so labels are compared first; the
    canonical keys are computed only when the labels differ.
    """
    return q1 == q2 or canonical_key(q1) == canonical_key(q2)
