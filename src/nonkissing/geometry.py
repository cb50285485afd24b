"""g-, c- and d-vectors, the g-vector fan and the associahedron.

All arithmetic is exact: integer vectors and fraction-free (Bareiss)
elimination, no fractions and no floats.
Coordinates are indexed by the sorted original vertices of the base quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import NotClosed, VHMismatch
from .facets import FlipGraph, Mark, QuiverContext
from .quiver import BlossomQuiver, BoundQuiver
from .walks import Walk, corner_profile, deep_walks, total_kissing_number

IntVector = tuple[int, ...]


def vertex_vector(q: BoundQuiver, counts) -> IntVector:
    """The vector over q's vertices that adds count at vertex's coordinate
    for each (vertex, count) pair of counts."""
    out = [0] * len(q.vertices)
    for v, k in counts:
        out[q.vertices.index(v)] += k
    return tuple(out)


def vec_dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def g_vector(bq: BlossomQuiver, w: Walk) -> IntVector:
    """Peak multiplicities minus deep multiplicities (zero for straight walks)."""
    return vertex_vector(
        bq.base, ((v, 1 if kind == "peak" else -1) for kind, v in corner_profile(bq, w))
    )


def _g_vectors(ctx: QuiverContext, ids) -> dict[int, IntVector]:
    """The g-vector of every walk id of ids, by id, each computed once."""
    return {w: g_vector(ctx.bq, ctx.walks[w]) for w in dict.fromkeys(ids)}


def _c_vector(ctx: QuiverContext, wi: int, data: dict[str, Mark]) -> IntVector:
    """The c-vector of bending walk id wi in a facet whose distinguished data
    is data: the signed multiplicity vector of its distinguished substring."""
    ds = ctx.substring(wi, data)[0]
    sign = 1 if ds.on_top else -1
    return vertex_vector(ctx.q, ((v, sign) for v in ds.vertices))


def d_vector(ctx: QuiverContext, wi: int, deep_ids: list[int]) -> IntVector:
    """The d-vector of walk id wi, where deep_ids are the ids of the deep
    walks in coordinate order: minus the basis vector of v on the deep walk
    of v, else the kiss numbers of wi on the deep walks."""
    if wi in deep_ids:
        return vertex_vector(ctx.q, [(ctx.q.vertices[deep_ids.index(wi)], -1)])
    return tuple(ctx.kn(wi, d) for d in deep_ids)


def _deep_ids(ctx: QuiverContext) -> list[int]:
    """The ids of the deep walks, interned into ctx, in coordinate order."""
    return [ctx.intern(dw) for dw in deep_walks(ctx.bq).values()]


def facet_matrices(ctx: QuiverContext, ids, gvecs, data: dict[str, Mark]):
    """(walks, G, C) of the facet with bending walk ids ids, in that column
    order, from its g-vectors by id and its distinguished data."""
    return (
        [ctx.walks[w] for w in ids],
        [gvecs[w] for w in ids],
        [_c_vector(ctx, w, data) for w in ids],
    )


def dual_basis_check(matrices) -> list[str]:
    """Pairings of g- and c-vectors over a facet must form the identity.

    matrices is the facet's `facet_matrices`, as `graph_matrices` lists them.
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
    gvecs = _g_vectors(g.ctx, chain(*g.ids))
    return [facet_matrices(g.ctx, b, gvecs, g.data[i]) for i, b in enumerate(g.ids)]


def d_vectors(g: FlipGraph) -> dict[int, IntVector]:
    """The `d_vector` of every bending walk of g, by walk id, each computed
    once in g's context, whose memoized kiss numbers give the coordinates."""
    deep_ids = _deep_ids(g.ctx)
    return {w: d_vector(g.ctx, w, deep_ids) for w in dict.fromkeys(chain(*g.ids))}


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
    return tuple(lam) if val > 0 else tuple(-x for x in lam)


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
    gvecs = _g_vectors(g.ctx, chain(*g.ids))
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


def build_associahedron(g: FlipGraph) -> Polytope:
    """Exact V- and H-descriptions of the associahedron, cross-validated.

    Vertices: sum over the facet of total-kissing-number times c-vector.
    Halfspaces: <g(w), x> <= KN(w) over the complete `walk_universe`.

    The edges are certified locally, as for any simple d-polytope: every
    vertex lies on exactly d facet-defining halfspaces with independent
    normals (so it has exactly d edges, the rays of its simplicial cone) and
    has d flip neighbours, and the defining halfspaces tight at both ends of
    each flip edge have normals of rank d - 1 (so each flip edge runs along
    one of those rays).  Then the edges are the flips.
    """
    if not g.closed:
        raise NotClosed("polytope construction needs a closed flip graph")
    ctx = g.ctx
    bq, q = ctx.bq, ctx.q
    uids = ctx.universe("polytope construction")
    d = len(q.vertices)
    normals = [g_vector(bq, ctx.walks[i]) for i in uids]
    bounds = [total_kissing_number(ctx.kn, i, uids) for i in uids]
    kn_total = dict(zip(uids, bounds))
    report: list[str] = []
    vertices = []
    for i, bending in enumerate(g.ids):
        p = (0,) * d
        for wi in bending:
            if wi not in kn_total:
                report.append(f"facet walk {ctx.keys[wi]} missing from the universe")
                continue
            kn = kn_total[wi]
            p = tuple(x + kn * c for x, c in zip(p, _c_vector(ctx, wi, g.data[i])))
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
