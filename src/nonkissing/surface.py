"""The marked surface of a locally gentle bound quiver.

One lozenge (quad) per arrow of the blossoming quiver, glued along relation
and non-relation pairs.  The surface is stored purely combinatorially as a
half-edge map: each quad has four directed sides

    rs: s -> f    rt: f -> t    gt: t -> v    gs: v -> s

read counterclockwise, where s and t are the black endpoints of the arrow
(middle points of dissection edges), v the green marked point and f the red
one.  Green sides form the dissection, red sides its dual; an unglued side
lies on the surface boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DifferentSurface,
    NonKissingError,
    InconsistentEuler,
    MissingDualPoint,
    MultipleDualPoints,
    NotCellular,
    NotMaximal,
    NotReducedCrossing,
    NoUniqueWalk,
)
from .quiver import BlossomQuiver, BoundQuiver, blossom, validate_locally_gentle
from .walks import (
    Letter,
    Walk,
    canonicalize,
    kn_pair,
    letter_src,
    letter_tgt,
    pair_ok,
    pair_reason,
    rev_word,
    tail_cycle,
)

KINDS = ("rs", "rt", "gt", "gs")
_NEXT = {"rs": "rt", "rt": "gt", "gt": "gs", "gs": "rs"}
_PREV = {v: k for k, v in _NEXT.items()}
_START_CORNER = {"rs": "s", "rt": "f", "gt": "t", "gs": "v"}


def next_face(h):
    return (h[0], _NEXT[h[1]])


def prev_face(h):
    return (h[0], _PREV[h[1]])


def start_corner(h):
    return (h[0], _START_CORNER[h[1]])


class SurfaceModel:
    """Half-edge quad complex carrying the two dual dissections."""

    def __init__(self, quads, twin, bq: BlossomQuiver | None = None):
        self.quads = tuple(quads)
        self.twin = dict(twin)
        self.bq = bq  # the blossoming the surface was built from, if any
        self.halfedges = tuple((q, k) for q in self.quads for k in KINDS)
        for h in self.halfedges:
            self.twin.setdefault(h, None)
            t = self.twin[h]
            if t is not None and self.twin.get(t) != h:
                raise NotCellular(f"twin of {h} is not involutive")
        self._classify()

    # -- construction helpers ------------------------------------------------

    def _classify(self) -> None:
        """Split the corners into the points of the surface.

        Gluing h to its twin t joins the corner at the start of h to the
        corner at the end of t, so a point is an orbit of the partial
        rotation start(h) -> start(next_face(twin(h))), whose inverse is
        `rotate`.  An orbit is a cycle around an interior point or a chain
        between two boundary sides, so each is walked once: back from its
        first side to the chain head, or once round a cycle, and on from
        that side to the chain's end.  A class is named by its first corner
        in half-edge order, and classes are listed in that order.
        class_orbit keeps each orbit's half-edges in forward order, from the
        chain head to the last side of a boundary point.
        """
        self.corner_class: dict = {}
        self.class_corners: dict = {}
        self.class_orbit: dict = {}
        self.class_type: dict = {}
        self.boundary_classes: set = set()
        # black classes split into middle points (degree 4) and blossom points
        self.black_kind: dict = {}
        self.black_name: dict = {}
        for h in self.halfedges:
            root = start_corner(h)
            if root in self.corner_class:
                continue
            # walk back to the chain head, or once round a cycle
            orbit = [h]
            back = self.rotate(h)
            while back is not None and back != h:
                orbit.append(back)
                back = self.rotate(back)
            orbit.reverse()
            if back is None:  # a chain: walk on from h to its last side
                self.boundary_classes.add(root)
                t = self.twin[h]
                while t is not None:
                    orbit.append(next_face(t))
                    t = self.twin[orbit[-1]]
            corners = {(q, _START_CORNER[k]) for q, k in orbit}
            for c in corners:
                self.corner_class[c] = root
            self.class_corners[root] = corners
            self.class_orbit[root] = orbit
            kinds = {c[1] for c in corners}
            if kinds == {"v"}:
                self.class_type[root] = "green"
            elif kinds == {"f"}:
                self.class_type[root] = "red"
            elif not kinds <= {"s", "t"}:
                raise NotCellular(f"vertex class mixes corner kinds {kinds}")
            elif len(corners) in (1, 4):
                self.class_type[root] = "black"
                self.black_kind[root] = "middle" if len(corners) == 4 else "blossom"
                self.black_name[root] = f"x{len(self.black_name)}"
            else:
                raise NotCellular(
                    f"black point with {len(corners)} corners; dissections not dual"
                )

    # -- basic queries --------------------------------------------------------

    def rotate(self, h):
        """Next half-edge counterclockwise around the start vertex of h."""
        return self.twin[prev_face(h)]

    def green_classes(self):
        return sorted(
            r for r, t in self.class_type.items() if t == "green"
        )

    def red_classes(self):
        return sorted(r for r, t in self.class_type.items() if t == "red")

    def middle_classes(self):
        return sorted(r for r, k in self.black_kind.items() if k == "middle")

    def is_puncture(self, root) -> bool:
        return root not in self.boundary_classes

    def boundary_cycles(self):
        """Boundary components as cycles of boundary half-edges.

        The side after a boundary side h ends the chain headed by
        next_face(h), the orbit of the point where h ends.
        """
        nxt = {}
        for h in self.halfedges:
            if self.twin[h] is None:
                root = self.corner_class[start_corner(next_face(h))]
                nxt[h] = self.class_orbit[root][-1]
        cycles = []
        seen = set()
        for h in sorted(nxt):
            if h in seen:
                continue
            cyc = []
            cur = h
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                cur = nxt[cur]
            cycles.append(cyc)
        return cycles

    def euler_characteristic(self) -> int:
        n_v = len(self.class_corners)
        sides = set()
        for h in self.halfedges:
            t = self.twin[h]
            sides.add(h if t is None or h <= t else t)
        n_e = len(sides)
        n_f = len(self.quads)
        return n_v - n_e + n_f

    # -- canonical form --------------------------------------------------------

    def canonical_key(self):
        """Canonical form of the typed half-edge map under relabeling of quads.

        Per connected component, the key is the smallest breadth-first
        encoding over all roots of kind `rs`; the component keys are sorted.
        Restricting the roots to `rs` keeps the key invariant: the kind of a
        half-edge follows from the types of the corners around its quad
        (black, red, black, green in face order), so every isomorphism maps
        `rs` half-edges to `rs` half-edges, and every component is made of
        whole quads, so it has an `rs` root.  Entry i of an encoding is known
        at step i of its search, so a root is dropped as soon as its prefix
        exceeds the best encoding so far.
        """
        index = {h: i for i, h in enumerate(self.halfedges)}
        # half-edge i is side i % 4 of quad i // 4, sides in KINDS (face) order
        twin = [index.get(self.twin[h], -1) for h in self.halfedges]
        nxt = [i + 1 if i % 4 < 3 else i - 3 for i in range(len(twin))]
        class_letter = {}
        for root, typ in self.class_type.items():
            if typ == "black":
                class_letter[root] = "B" if self.black_kind[root] == "middle" else "L"
            else:
                class_letter[root] = "V" if typ == "green" else "F"
        letter = [class_letter[self.corner_class[start_corner(h)]] for h in self.halfedges]
        seen = [False] * len(twin)
        keys = []
        for r in range(0, len(twin), 4):
            if seen[r]:
                continue
            comp = [r]
            seen[r] = True
            for h in comp:
                for nb in (nxt[h], twin[h]):
                    if nb >= 0 and not seen[nb]:
                        seen[nb] = True
                        comp.append(nb)
            best = None
            for h0 in comp:
                if h0 % 4 == 0:
                    enc = _encode_below(h0, nxt, twin, letter, best)
                    if enc is not None:
                        best = enc
            keys.append(best)
        return tuple(sorted(keys))


def _encode_below(h0, nxt, twin, letter, best):
    """Breadth-first encoding of the component of h0 read from h0.

    Entry i is (id of next_face, id of twin or -1, corner letter) of the i-th
    half-edge reached; ids number half-edges in the order they are reached.
    Returns None as soon as the encoding is known not to be below `best`.
    """
    ids = [-1] * len(twin)
    ids[h0] = 0
    order = [h0]
    enc = []
    tie = best is not None
    for h in order:
        f, t = nxt[h], twin[h]
        if ids[f] < 0:
            ids[f] = len(order)
            order.append(f)
        if t >= 0 and ids[t] < 0:
            ids[t] = len(order)
            order.append(t)
        entry = (ids[f], ids[t] if t >= 0 else -1, letter[h])
        if tie:
            other = best[len(enc)]
            if entry > other:
                return None
            tie = entry == other
        enc.append(entry)
    return tuple(enc)


def surfaces_isomorphic(s1: SurfaceModel, s2: SurfaceModel) -> bool:
    return s1.canonical_key() == s2.canonical_key()


# ---------------------------------------------------------------------------
# quiver -> surface


def surface_from_quiver(q: BoundQuiver) -> SurfaceModel:
    """Glue one lozenge per blossoming arrow along relation and non-relation pairs.
    q must be locally gentle; it is not checked here."""
    bq = blossom(q)
    twin: dict = {}
    for a in bq.quiver.arrow_ids:
        v = bq.quiver.tgt[a]
        for b in bq.quiver.arrows_out[v]:
            if (a, b) in bq.quiver.relations:
                twin[(a, "rt")] = (b, "rs")
                twin[(b, "rs")] = (a, "rt")
            else:
                twin[(a, "gt")] = (b, "gs")
                twin[(b, "gs")] = (a, "gt")
    model = SurfaceModel(bq.quiver.arrow_ids, twin, bq)
    names = {}
    # name black classes by the quiver vertex they come from
    for root, corners in model.class_corners.items():
        if model.class_type[root] != "black":
            continue
        verts = {
            bq.quiver.src[a] if kind == "s" else bq.quiver.tgt[a]
            for a, kind in corners
        }
        if len(verts) != 1:
            raise NotCellular(f"black class mixes quiver vertices {sorted(verts)}")
        names[root] = verts.pop()
    model.black_name = names
    return model


# ---------------------------------------------------------------------------
# invariants


def _matching_components(bq: BlossomQuiver) -> int:
    """Components of the superposed straight and relation chain matchings.

    Both matchings live on the blossom leaves of one blossoming: straight
    walks chain arrows by relation-free continuation, the dual's straight
    walks appear as maximal relation chains of the same blossoming.
    """
    from .walks import straight_next

    def chain_end(a: str, src: str, step, what: str) -> str:
        """The blossom leaf where the chain of arrows after a by step ends."""
        cur = step(a)
        while cur is not None and bq.quiver.tgt[cur] not in bq.blossom_vertices:
            cur = step(cur)
        if cur is None:
            raise InconsistentEuler(f"{what} from leaf {src!r} stops inside")
        return bq.quiver.tgt[cur]

    # matching 1: endpoints of maximal relation-free paths; matching 2:
    # endpoints of maximal relation chains
    rel_next = {x: y for x, y in bq.quiver.relations}
    edges = [
        (src, chain_end(a, src, step, what))
        for step, what in (
            (lambda a: straight_next(bq, a), "straight path"),
            (rel_next.get, "relation chain"),
        )
        for a, src, _ in bq.quiver.arrows
        if src in bq.blossom_vertices
    ]
    adj: dict = {}
    for x, y in edges:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    seen: set = set()
    comps = 0
    for v in sorted(adj):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return comps


def surface_invariants(s: SurfaceModel) -> dict:
    """Boundary count, punctures, genus, Euler characteristic, cross-checked."""
    b_cycles = len(s.boundary_cycles())
    p = sum(1 for r in s.green_classes() if s.is_puncture(r))
    p_dual = sum(1 for r in s.red_classes() if s.is_puncture(r))
    n0 = len(s.middle_classes())
    n1 = sum(
        1
        for q in s.quads
        if s.black_kind[s.corner_class[(q, "s")]] == "middle"
        and s.black_kind[s.corner_class[(q, "t")]] == "middle"
    )
    genus2 = n1 - n0 - b_cycles - p - p_dual + 2
    if genus2 % 2 != 0:
        raise InconsistentEuler("genus formula gives a non-integer")
    genus = genus2 // 2
    chi = s.euler_characteristic()
    if chi != 2 - 2 * genus - b_cycles:
        raise InconsistentEuler(
            f"half-edge Euler characteristic {chi} != {2 - 2 * genus - b_cycles}"
        )
    if s.bq is not None:
        b_match = _matching_components(s.bq)
        if b_match != b_cycles:
            raise InconsistentEuler(
                f"matching graph gives {b_match} boundary components, map gives {b_cycles}"
            )
    return {
        "b": b_cycles,
        "p": p,
        "p_dual": p_dual,
        "punctures": p + p_dual,
        "genus": genus,
        "euler": chi,
    }


# ---------------------------------------------------------------------------
# surface -> quiver


def quiver_from_surface(s: SurfaceModel) -> BoundQuiver:
    """Read a bound quiver off the green dissection of the surface, and validate it.

    Vertices are the interior dissection edges (middle black points), arrows
    the quads whose two black corners are both interior, relations the
    relation-side gluings between such quads.  The red dissection reads as
    `quiver_from_surface(swap_dissections(s))`, the Koszul dual.
    """
    middle = set(s.middle_classes())
    vertices = sorted(s.black_name[r] for r in middle)
    arrows = []
    interior = []
    for q in s.quads:
        cs = s.corner_class[(q, "s")]
        ct = s.corner_class[(q, "t")]
        if cs in middle and ct in middle:
            interior.append(q)
            arrows.append((q, s.black_name[cs], s.black_name[ct]))
    interior_set = set(interior)
    relations = set()
    for q in interior:
        t = s.twin[(q, "rt")]  # the constructor glues an rt side only to an rs side
        if t is not None and t[0] in interior_set:
            relations.add((q, t[0]))
    out = BoundQuiver(
        vertices=tuple(vertices),
        arrows=tuple(sorted(arrows)),
        relations=frozenset(relations),
    )
    return validate_locally_gentle(out)


def swap_dissections(s: SurfaceModel) -> SurfaceModel:
    """Exchange the green and red dissections (same surface, dual quiver)."""
    kind_map = {"gt": "rs", "gs": "rt", "rs": "gt", "rt": "gs"}
    twin = {}
    for (q, k), t in s.twin.items():
        if t is None:
            twin[(q, kind_map[k])] = None
        else:
            twin[(q, kind_map[k])] = (t[0], kind_map[t[1]])
    model = SurfaceModel(s.quads, twin)
    # new s-corners were old t-corners and vice versa; carry the names over
    names = {}
    for root, corners in model.class_corners.items():
        if model.class_type[root] != "black":
            continue
        q0, k0 = sorted(corners)[0]
        old_root = s.corner_class[(q0, "t" if k0 == "s" else "s")]
        names[root] = s.black_name[old_root]
    model.black_name = names
    return model


# ---------------------------------------------------------------------------
# dual dissection reconstruction


@dataclass(frozen=True)
class GreenView:
    """The surface with only the green dissection retained.

    Each face is the star of one red point: a cyclic (closed=True) or linear
    sequence of corner units (gs_slot, gt_slot); slots pair across faces
    through `pairs` exactly when the green side is interior.  marks counts
    the red points assigned to the face.
    """

    faces: tuple[tuple[tuple[str, str], ...], ...]
    closed: tuple[bool, ...]
    marks: tuple[int, ...]
    pairs: frozenset[frozenset[str]]


def strip_dual(s: SurfaceModel) -> GreenView:
    faces = []
    closed = []
    for root in s.red_classes():
        # the red point's orbit runs through the rt sides of its quads; a
        # closed face is read ending at its least quad
        seq = s.class_orbit[root]
        closed.append(s.is_puncture(root))
        if closed[-1]:
            i = seq.index(min(seq)) + 1
            seq = seq[i:] + seq[:i]
        faces.append(tuple((f"{q}:gs", f"{q}:gt") for q, _ in seq))
    pairs = set()
    for h, t in s.twin.items():
        if t is None or h[1] not in ("gs", "gt"):
            continue
        pairs.add(frozenset((f"{h[0]}:{h[1]}", f"{t[0]}:{t[1]}")))
    return GreenView(tuple(faces), tuple(closed), (1,) * len(faces), frozenset(pairs))


def dual_dissection(view: GreenView) -> SurfaceModel:
    """Rebuild the red dissection by joining each face's red point to its sides."""
    for i, m in enumerate(view.marks):
        if m == 0:
            raise MissingDualPoint(f"face {i} contains no dual marked point")
        if m > 1:
            raise MultipleDualPoints(f"face {i} contains {m} dual marked points")
    twin: dict = {}
    quads = []
    slot_he: dict[str, tuple] = {}
    for fi, units in enumerate(view.faces):
        face_quads = []
        for ui, (slot_gs, slot_gt) in enumerate(units):
            quad = f"f{fi}u{ui}"
            quads.append(quad)
            face_quads.append(quad)
            slot_he[slot_gs] = (quad, "gs")
            slot_he[slot_gt] = (quad, "gt")
        # red gluings within the face: rt of unit i with rs of unit i+1
        n = len(face_quads)
        rng = range(n) if view.closed[fi] else range(n - 1)
        for i in rng:
            a = face_quads[i]
            b = face_quads[(i + 1) % n]
            twin[(a, "rt")] = (b, "rs")
            twin[(b, "rs")] = (a, "rt")
    for pair in view.pairs:
        x, y = sorted(pair)
        hx, hy = slot_he[x], slot_he[y]
        if {hx[1], hy[1]} != {"gs", "gt"}:
            raise NotCellular(f"green pairing {pair} does not match side kinds")
        twin[hx] = hy
        twin[hy] = hx
    return SurfaceModel(quads, twin)


# ---------------------------------------------------------------------------
# curves of walks


@dataclass(frozen=True)
class CrossingSequence:
    """Combinatorial curve: dissection-edge crossings with the angles between.

    Ends are ('B', blossom leaf) markers on the boundary or
    ('P', cycle, sign) spiral markers at punctures.
    """

    quiver_key: tuple
    left: tuple
    crossings: tuple[str, ...]
    angles: tuple[Letter, ...]
    right: tuple


def _quiver_key(q: BoundQuiver) -> tuple:
    return (q.vertices, q.arrows, tuple(sorted(q.relations)))


def curve_of_walk(bq: BlossomQuiver, w: Walk) -> CrossingSequence:
    core = list(w.body)
    if not w.ltail:
        first = core.pop(0)
        if not bq.is_blossom_arrow(first[0]):
            raise NotMaximal(f"left end of {w.serialize()!r} is not at a blossom leaf")
        left = ("B", letter_src(bq, first))
    else:
        cyc, sign = tail_cycle(w.ltail)
        left = ("P", cyc, sign)
    if not w.rtail:
        last = core.pop()
        if not bq.is_blossom_arrow(last[0]):
            raise NotMaximal(f"right end of {w.serialize()!r} is not at a blossom leaf")
        right = ("B", letter_tgt(bq, last))
    else:
        cyc, sign = tail_cycle(w.rtail)
        right = ("P", cyc, sign)
    if core:
        crossings = [letter_src(bq, core[0])]
        crossings += [letter_tgt(bq, x) for x in core]
    elif w.ltail:
        crossings = [letter_tgt(bq, w.ltail[-1])]
    else:
        crossings = [letter_tgt(bq, w.body[0])]
    return CrossingSequence(
        quiver_key=_quiver_key(bq.base),
        left=left,
        crossings=tuple(crossings),
        angles=tuple(core),
        right=right,
    )


def _spiral_phases(sign: int, cyc) -> list:
    base = tuple((a, 1) for a in cyc)
    unit0 = base if sign > 0 else rev_word(base)
    k = len(unit0)
    return [unit0[j:] + unit0[:j] for j in range(k)]


def walk_of_curve(bq: BlossomQuiver, c: CrossingSequence) -> Walk:
    """Invert curve_of_walk.  The tail phase at a spiral end is the unique
    rotation of the cycle whose junction with the rest of the word is a
    legal string factor."""
    if c.quiver_key != _quiver_key(bq.base):
        raise DifferentSurface("crossing sequence belongs to a different surface")
    for x, y in zip(c.angles, c.angles[1:]):
        if pair_reason(bq, x, y) == "unreduced":
            raise NotReducedCrossing(
                f"curve re-crosses {x[0]!r} immediately backwards"
            )
    letters = list(c.angles)
    if c.left[0] == "B":
        leaf = c.left[1]
        arrow = bq.leaf_arrow[leaf]
        letter = (arrow, 1) if bq.quiver.src[arrow] == leaf else (arrow, -1)
        letters.insert(0, letter)
    if c.right[0] == "B":
        leaf = c.right[1]
        arrow = bq.leaf_arrow[leaf]
        letter = (arrow, 1) if bq.quiver.tgt[arrow] == leaf else (arrow, -1)
        letters.append(letter)
    left_opts = (
        _spiral_phases(c.left[2], c.left[1]) if c.left[0] == "P" else [()]
    )
    right_opts = (
        _spiral_phases(c.right[2], c.right[1]) if c.right[0] == "P" else [()]
    )
    if letters:
        left_opts = [
            u for u in left_opts if not u or pair_ok(bq, u[-1], letters[0])
        ]
        right_opts = [
            u for u in right_opts if not u or pair_ok(bq, letters[-1], u[0])
        ]
    results = set()
    for lt in left_opts:
        for rt in right_opts:
            if not letters and lt and rt and not pair_ok(bq, lt[-1], rt[0]):
                continue
            try:
                results.add(canonicalize(bq, lt, tuple(letters), rt))
            except NonKissingError:
                continue
    if len(results) != 1:
        raise NoUniqueWalk(f"crossing sequence determines {len(results)} walks, expected 1")
    return results.pop()


def surface_dump(s: SurfaceModel) -> dict:
    """Half-edge tables with stable ordering: involution, rotations, classes."""

    def he_name(h):
        return f"{h[0]}:{h[1]}" if h is not None else None

    class_label = {}
    counters = {"green": 0, "red": 0, "middle": 0, "blossom": 0}
    prefixes = {"green": "V", "red": "V*", "middle": "M", "blossom": "B"}
    for root in sorted(s.class_corners, key=lambda r: sorted(s.class_corners[r])):
        typ = s.class_type[root]
        kind = typ if typ != "black" else s.black_kind[root]
        if kind == "middle":
            class_label[root] = f"M:{s.black_name[root]}"
            continue
        class_label[root] = f"{prefixes[kind]}{counters[kind]}"
        counters[kind] += 1
    halfedges = sorted(s.halfedges)
    return {
        "halfedges": [he_name(h) for h in halfedges],
        "twin": {he_name(h): he_name(s.twin[h]) for h in halfedges},
        "face_next": {he_name(h): he_name(next_face(h)) for h in halfedges},
        "vertex_rotation": {he_name(h): he_name(s.rotate(h)) for h in halfedges},
        "start_class": {
            he_name(h): class_label[s.corner_class[start_corner(h)]]
            for h in halfedges
        },
        "punctures": sorted(
            class_label[r]
            for r in s.class_corners
            if s.class_type[r] in ("green", "red") and s.is_puncture(r)
        ),
    }


def crossing_count(bq: BlossomQuiver, c1: CrossingSequence, c2: CrossingSequence) -> int:
    """Crossing number of two curves, defined as the kissing number of their
    walks (`walk_of_curve` rejects a curve of another surface); it is not
    counted on the surface itself."""
    return kn_pair(bq, walk_of_curve(bq, c1), walk_of_curve(bq, c2))
