"""g-, c- and d-vectors, the g-vector fan and the associahedron.

All arithmetic is exact: integer vectors and fraction-free (Bareiss)
elimination, no fractions and no floats.
Coordinates are indexed by the sorted original vertices of the base quiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IncompleteUniverse,
    NotBending,
    NotClosed,
    NotMember,
    VHMismatch,
)
from .facets import (
    DistinguishedString,
    Facet,
    FlipGraph,
    distinguished_data,
    distinguished_substring,
)
from .quiver import BlossomQuiver, BoundQuiver
from .walks import (
    Walk,
    corner_profile,
    deep_walks,
    is_bending,
    kiss_count,
)

IntVector = tuple[int, ...]


def zero_vector(q: BoundQuiver) -> IntVector:
    return (0,) * len(q.vertices)


def basis_vector(q: BoundQuiver, v: str, sign: int = 1) -> IntVector:
    i = q.vertices.index(v)
    return tuple(sign if j == i else 0 for j in range(len(q.vertices)))


def vec_add(x: IntVector, y: IntVector) -> IntVector:
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(k, x):
    return tuple(k * a for a in x)


def vec_dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def multiplicity_vector(q: BoundQuiver, vertices) -> IntVector:
    out = [0] * len(q.vertices)
    index = {v: i for i, v in enumerate(q.vertices)}
    for v in vertices:
        out[index[v]] += 1
    return tuple(out)


def g_vector(bq: BlossomQuiver, w: Walk) -> IntVector:
    """Peak multiplicities minus deep multiplicities (zero for straight walks)."""
    q = bq.base
    out = [0] * len(q.vertices)
    index = {v: i for i, v in enumerate(q.vertices)}
    for kind, v in corner_profile(bq, w):
        out[index[v]] += 1 if kind == "peak" else -1
    return tuple(out)


def c_vector(
    bq: BlossomQuiver, facet: Facet, w: Walk, data=None
) -> IntVector:
    """Signed multiplicity vector of the distinguished substring of w in the facet."""
    if not is_bending(w):
        raise NotBending("c-vectors are attached to bending walks only")
    if w not in facet.walks:
        raise NotMember(f"walk {w.serialize()!r} is not in the facet")
    return _signed_multiplicity(bq.base, distinguished_substring(bq, facet, w, data))


def _signed_multiplicity(q: BoundQuiver, ds: DistinguishedString) -> IntVector:
    vec = multiplicity_vector(q, ds.vertices)
    return vec if ds.on_top else vec_scale(-1, vec)


def _graph_c_vector(g: FlipGraph, i: int, w: int) -> IntVector:
    """The c-vector of walk id w in facet i of g, from the stored data."""
    return _signed_multiplicity(g.quiver, g.ctx.substring(w, g.data[i])[0])


def d_vector(bq: BlossomQuiver, w: Walk, deeps: dict[str, Walk]) -> IntVector:
    """Minus a basis vector on deep walks, else kiss counts against deep walks.

    deeps is `deep_walks(bq)`.
    """
    q = bq.base
    for v, dw in deeps.items():
        if w == dw:
            return basis_vector(q, v, -1)
    return tuple(kiss_count(bq, w, deeps[v]) for v in q.vertices)


def facet_matrices(bq: BlossomQuiver, facet: Facet):
    """(walks, G, C) with matching column order over the bending walks."""
    data = distinguished_data(bq, facet)
    walks = list(facet.bending)
    gs = [g_vector(bq, w) for w in walks]
    cs = [c_vector(bq, facet, w, data) for w in walks]
    return walks, gs, cs


def dual_basis_check(matrices) -> list[str]:
    """Pairings of g- and c-vectors over a facet must form the identity.

    matrices is the facet's `facet_matrices`, or its entry of `graph_matrices`.
    """
    walks, gs, cs = matrices
    report = []
    for i, wi in enumerate(walks):
        for j, wj in enumerate(walks):
            got = vec_dot(gs[i], cs[j])
            want = 1 if i == j else 0
            if got != want:
                report.append(
                    f"<g({wi.serialize()}), c({wj.serialize()})> = {got}, expected {want}"
                )
    return report


def graph_matrices(g: FlipGraph) -> list:
    """The `facet_matrices` of every facet of g, from its stored distinguished data."""
    bq, walks = g.ctx.bq, g.ctx.walks
    gvecs = {w: g_vector(bq, walks[w]) for b in g.ids for w in b}
    return [
        (
            [walks[w] for w in b],
            [gvecs[w] for w in b],
            [_graph_c_vector(g, i, w) for w in b],
        )
        for i, b in enumerate(g.ids)
    ]


def d_vectors(g: FlipGraph) -> dict[int, IntVector]:
    """The d-vector of every bending walk of g, by walk id, each computed once.

    The deep walks are interned into g's context, whose memoized kiss
    numbers give the coordinates.
    """
    ctx = g.ctx
    q = ctx.q
    deeps = [ctx.intern(dw) for dw in deep_walks(ctx.bq).values()]  # by vertex
    out = {}
    for b in g.ids:
        for w in b:
            if w not in out:
                out[w] = (
                    basis_vector(q, q.vertices[deeps.index(w)], -1)
                    if w in deeps
                    else tuple(ctx.kn(w, d) for d in deeps)
                )
    return out


def sign_coherence_report(g: FlipGraph, matrices) -> list[str]:
    """g per coordinate across each facet; c and d per vector.

    matrices is `graph_matrices(g)`.
    """
    report = []
    dvecs = d_vectors(g)
    for i, (walks, gs, cs) in enumerate(matrices):
        for k in range(len(g.quiver.vertices)):
            signs = {x[k] > 0 for x in gs if x[k] != 0}
            if len(signs) > 1:
                report.append(f"facet {i}: g-vectors mix signs in coordinate {k}")
        for w, c in zip(walks, cs):
            if any(x > 0 for x in c) and any(x < 0 for x in c):
                report.append(f"facet {i}: c({w.serialize()}) mixes signs")
        for w, wi in zip(walks, g.ids[i]):
            d = dvecs[wi]
            if any(x > 0 for x in d) and any(x < 0 for x in d):
                report.append(f"facet {i}: d({w.serialize()}) mixes signs")
    return report


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _eliminate(rows, jordan: bool = False):
    """Fraction-free (Bareiss) elimination of integer rows.

    Returns (rows, pivot columns, sign of the row swaps, last pivot).  After
    each pivot every entry below it is a minor of the input, so the
    divisions are exact and all intermediate values stay integers.  With
    jordan the entries above each pivot are cleared too, which keeps the
    divisions exact and leaves every pivot row holding the last pivot in
    its pivot column: a scaled reduced echelon form.
    """
    m = [list(row) for row in rows]
    n = len(m)
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev, sign = 1, 1
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, n) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for r in range(0 if jordan else rank + 1, n):
            if r == rank:
                continue
            row = m[r]
            f = row[col]
            m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
        if rank + 1 == n:
            break
    return m, pivots, sign, prev


def _bareiss(rows) -> tuple[int, int]:
    """Rank, and determinant of a square matrix (0 otherwise), of integer rows."""
    m, pivots, sign, last = _eliminate(rows)
    n, rank = len(m), len(pivots)
    return rank, (sign * last if rank == n == (len(m[0]) if m else 0) else 0)


def _wall_normal(shared, witness) -> IntVector | None:
    """A functional vanishing on the d-1 shared rays and positive on the witness.

    The shared rays span a hyperplane exactly when their reduced echelon form
    leaves one free column; the normal is then read off that form's
    nullspace.  None for a degenerate wall.
    """
    d = len(witness)
    if len(shared) != d - 1:
        return None
    m, pivots, _, last = _eliminate(shared, jordan=True)
    if len(pivots) != d - 1:
        return None
    (free,) = set(range(d)) - set(pivots)
    lam = [0] * d
    lam[free] = last
    for row, col in zip(m, pivots):
        lam[col] = -row[free]
    val = vec_dot(lam, witness)
    if val == 0:
        return None
    return tuple(lam) if val > 0 else vec_scale(-1, lam)


# ---------------------------------------------------------------------------
# fan


@dataclass(frozen=True)
class FanCone:
    facet_index: int
    rays: tuple[IntVector, ...]


@dataclass(frozen=True)
class Fan:
    cones: tuple[FanCone, ...]
    report: tuple[str, ...]

    @property
    def complete_and_simplicial(self) -> bool:
        return not self.report


def build_fan(g: FlipGraph) -> Fan:
    """Cones spanned by facet g-vectors, with the wall-crossing certificate.

    Checks: each cone simplicial (nonzero determinant); every wall shared by
    exactly two cones whose opposite rays lie strictly on opposite sides.
    """
    if not g.closed:
        raise NotClosed("fan construction needs a closed flip graph")
    bq, walks = g.ctx.bq, g.ctx.walks
    gvecs = {w: g_vector(bq, walks[w]) for b in g.ids for w in b}
    d = len(g.quiver.vertices)
    report: list[str] = []
    cones = []
    for i, bending in enumerate(g.ids):
        rays = tuple(sorted(gvecs[w] for w in bending))
        cones.append(FanCone(i, rays))
        if len(rays) != d or (d > 0 and _bareiss(rays)[1] == 0):
            report.append(f"cone {i} is not simplicial")
    walls: dict[tuple, list[tuple[int, IntVector]]] = {}
    for cone in cones:
        for k in range(len(cone.rays)):
            shared = tuple(r for j, r in enumerate(cone.rays) if j != k)
            walls.setdefault(shared, []).append((cone.facet_index, cone.rays[k]))
    for shared, owners in sorted(walls.items()):
        if len(owners) != 2:
            report.append(
                f"wall {shared} belongs to {len(owners)} cones, expected 2"
            )
            continue
        (i, ray_i), (j, ray_j) = owners
        lam = _wall_normal(shared, ray_i)
        if lam is None:
            report.append(f"wall {shared} is degenerate")
            continue
        if vec_dot(lam, ray_j) >= 0:
            report.append(
                f"cones {i} and {j} lie on the same side of wall {shared}"
            )
    # walls must biject with flip edges
    undirected_edges = {frozenset((e.source, e.target)) for e in g.edges}
    wall_pairs = {
        frozenset((owners[0][0], owners[1][0]))
        for owners in walls.values()
        if len(owners) == 2
    }
    if wall_pairs != undirected_edges:
        report.append("fan walls do not match the flip graph edges")
    return Fan(tuple(cones), tuple(report))


# ---------------------------------------------------------------------------
# associahedron


@dataclass(frozen=True)
class Polytope:
    vertices: tuple[IntVector, ...]  # one per facet, same order
    halfspaces: tuple[tuple[IntVector, int], ...]  # (normal, offset) per universe walk
    defining: tuple[tuple[IntVector, int], ...]


def build_associahedron(
    q: BoundQuiver, g: FlipGraph, universe: list[Walk], complete: bool = True
) -> Polytope:
    """Exact V- and H-descriptions of the associahedron, cross-validated.

    Vertices: sum over the facet of total-kissing-number times c-vector.
    Halfspaces: <g(w), x> <= KN(w) over the whole walk universe.

    The edges are certified locally, as for any simple d-polytope: every
    vertex lies on exactly d facet-defining halfspaces with independent
    normals (so it has exactly d edges, the rays of its simplicial cone) and
    has d flip neighbours, and the defining halfspaces tight at both ends of
    each flip edge have normals of rank d - 1 (so each flip edge runs along
    one of those rays).  Then the edges are the flips.
    """
    if not g.closed:
        raise NotClosed("polytope construction needs a closed flip graph")
    if not complete:
        raise IncompleteUniverse("polytope construction needs the complete walk set")
    ctx = g.ctx
    bq = ctx.bq
    d = len(q.vertices)
    uids = [ctx.intern(w) for w in universe]
    normals = [g_vector(bq, w) for w in universe]
    # KN(w) = sum of kn(w, w') + kn(w', w) over the universe, each kn once
    bounds = [sum(ctx.kn(i, j) + ctx.kn(j, i) for j in uids) for i in uids]
    kn_total = dict(zip(uids, bounds))
    report: list[str] = []
    vertices = []
    for i, bending in enumerate(g.ids):
        p = zero_vector(q)
        for wi in bending:
            if wi not in kn_total:
                report.append(f"facet walk {ctx.keys[wi]} missing from the universe")
                continue
            p = vec_add(p, vec_scale(kn_total[wi], _graph_c_vector(g, i, wi)))
        vertices.append(p)
    halfspaces = tuple(zip(normals, bounds))
    # V against H, recording the halfspaces each vertex meets with equality
    tight: list[set[int]] = []
    for i, vert in enumerate(vertices):
        members = {*g.ids[i], *g.straights}
        tight.append(set())
        for k, wi in enumerate(uids):
            val = vec_dot(normals[k], vert)
            bound = bounds[k]
            if val == bound:
                tight[i].add(k)
            if wi in members:
                if val != bound:
                    report.append(
                        f"vertex {i} not tight on its own walk {ctx.keys[wi]}:"
                        f" {val} != {bound}"
                    )
            elif val >= bound:
                report.append(
                    f"vertex {i} violates halfspace of {ctx.keys[wi]}: {val} >= {bound}"
                )
    if len(set(vertices)) != len(vertices):
        report.append("facet vertices are not pairwise distinct")
    # facet-defining halfspaces: their tight vertices span a hyperplane
    defining = set()
    for normal, bound in set(halfspaces):
        if not any(normal):
            continue
        tight_pts = [v for v in vertices if vec_dot(normal, v) == bound]
        if not tight_pts:
            continue
        diffs = [
            [a - b for a, b in zip(v, tight_pts[0])] for v in tight_pts[1:]
        ]
        if _bareiss(diffs)[0] == d - 1:
            defining.add((normal, bound))
    # the simple-polytope edge certificate against the flip graph
    flip_adj = {frozenset((e.source, e.target)) for e in g.edges}
    degree = [0] * len(vertices)
    for edge in flip_adj:
        for i in edge:
            degree[i] += 1
    at_vertex = []
    for i, ks in enumerate(tight):
        if degree[i] != d:
            report.append(f"vertex {i} has {degree[i]} flip neighbours, expected {d}")
        at_vertex.append({halfspaces[k] for k in ks} & defining)
        if len(at_vertex[i]) != d or _bareiss([n for n, _ in at_vertex[i]])[0] != d:
            report.append(f"vertex {i} is not simple")
    for i, j in sorted(tuple(sorted(edge)) for edge in flip_adj):
        if _bareiss([n for n, _ in at_vertex[i] & at_vertex[j]])[0] != d - 1:
            report.append(
                f"vertex adjacency of facets {i},{j} disagrees with the flip graph"
            )
    if report:
        raise VHMismatch("; ".join(report))
    return Polytope(
        vertices=tuple(vertices),
        halfspaces=halfspaces,
        defining=tuple(sorted(defining)),
    )
