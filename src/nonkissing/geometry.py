"""g-, c- and d-vectors, the g-vector fan and the associahedron.

All arithmetic is exact: integer vectors and Fraction solves, no floats.
Coordinates are indexed by the sorted original vertices of the base quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotBending, NotClosed, NotMember, VHMismatch
from .facets import (
    Facet,
    FlipGraph,
    distinguished_data,
    distinguished_substring,
)
from .quiver import BlossomQuiver, BoundQuiver, blossom
from .walks import (
    Walk,
    corner_profile,
    deep_walk,
    is_bending,
    kiss_count,
    total_kissing_number,
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
    ds = distinguished_substring(bq, facet, w, data)
    vec = multiplicity_vector(bq.base, ds.vertices)
    return vec if ds.on_top else vec_scale(-1, vec)


def d_vector(bq: BlossomQuiver, w: Walk) -> IntVector:
    """Minus a basis vector on deep walks, else kiss counts against deep walks."""
    q = bq.base
    deeps = {v: deep_walk(bq, v) for v in q.vertices}
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


def dual_basis_check(bq: BlossomQuiver, facet: Facet) -> list[str]:
    """Pairings of g- and c-vectors over a facet must form the identity."""
    walks, gs, cs = facet_matrices(bq, facet)
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


def sign_coherence_report(bq: BlossomQuiver, g: FlipGraph) -> list[str]:
    """g per coordinate across each facet; c and d per vector."""
    report = []
    for i, facet in enumerate(g.facets):
        walks, gs, cs = facet_matrices(bq, facet)
        for k in range(len(bq.base.vertices)):
            signs = {x[k] > 0 for x in gs if x[k] != 0}
            if len(signs) > 1:
                report.append(f"facet {i}: g-vectors mix signs in coordinate {k}")
        for w, c in zip(walks, cs):
            if any(x > 0 for x in c) and any(x < 0 for x in c):
                report.append(f"facet {i}: c({w.serialize()}) mixes signs")
        for w in walks:
            d = d_vector(bq, w)
            if any(x > 0 for x in d) and any(x < 0 for x in d):
                report.append(f"facet {i}: d({w.serialize()}) mixes signs")
    return report


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions


def _rank(rows) -> int:
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


def _det(rows) -> Fraction:
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


def _wall_normal(shared, witness) -> tuple[Fraction, ...] | None:
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
    val = vec_dot(lam, witness)
    if val == 0:
        return None
    if val < 0:
        lam = [-x for x in lam]
    return tuple(lam)


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
    bq = blossom(g.quiver)
    d = len(g.quiver.vertices)
    report: list[str] = []
    cones = []
    ray_sets = []
    for i, facet in enumerate(g.facets):
        rays = tuple(sorted(g_vector(bq, w) for w in facet.bending))
        cones.append(FanCone(i, rays))
        ray_sets.append(set(rays))
        if len(rays) != d or (d > 0 and _det(rays) == 0):
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
    vertices: tuple[tuple[Fraction, ...], ...]  # one per facet, same order
    halfspaces: tuple[tuple[IntVector, int], ...]  # (normal, offset) per universe walk
    defining: tuple[tuple[IntVector, int], ...]
    report: tuple[str, ...]


def build_associahedron(
    q: BoundQuiver, g: FlipGraph, universe: list[Walk], complete: bool = True
) -> Polytope:
    """Exact V- and H-descriptions of the associahedron, cross-validated.

    Vertices: sum over the facet of total-kissing-number times c-vector.
    Halfspaces: <g(w), x> <= KN(w) over the whole walk universe.
    """
    if not g.closed:
        raise NotClosed("polytope construction needs a closed flip graph")
    from .errors import IncompleteUniverse

    if not complete:
        raise IncompleteUniverse("polytope construction needs the complete walk set")
    bq = blossom(q)
    d = len(q.vertices)
    kn_total = {w: total_kissing_number(bq, w, universe, complete) for w in universe}
    report: list[str] = []
    vertices = []
    facet_walks = []
    for facet in g.facets:
        data = distinguished_data(bq, facet)
        p = zero_vector(q)
        for w in facet.bending:
            if w not in kn_total:
                report.append(f"facet walk {w.serialize()} missing from the universe")
                continue
            p = vec_add(p, vec_scale(kn_total[w], c_vector(bq, facet, w, data)))
        vertices.append(tuple(Fraction(x) for x in p))
        facet_walks.append(set(facet.walks))
    halfspaces = tuple((g_vector(bq, w), kn_total[w]) for w in universe)
    # V against H
    for i, (vert, members) in enumerate(zip(vertices, facet_walks)):
        for w in universe:
            val = vec_dot(g_vector(bq, w), vert)
            bound = kn_total[w]
            if w in members:
                if val != bound:
                    report.append(
                        f"vertex {i} not tight on its own walk {w.serialize()}:"
                        f" {val} != {bound}"
                    )
            elif val >= bound:
                report.append(
                    f"vertex {i} violates halfspace of {w.serialize()}: {val} >= {bound}"
                )
    if len(set(vertices)) != len(vertices):
        report.append("facet vertices are not pairwise distinct")
    # adjacency must match the flip graph
    flip_adj = {frozenset((e.source, e.target)) for e in g.edges}
    normals = [g_vector(bq, w) for w in universe]
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            mid = tuple(
                (a + b) / 2 for a, b in zip(vertices[i], vertices[j])
            )
            tight = [
                normals[k]
                for k, w in enumerate(universe)
                if vec_dot(normals[k], mid) == kn_total[w]
            ]
            rank = _rank(tight) if tight else 0
            is_edge = rank == d - 1
            if is_edge != (frozenset((i, j)) in flip_adj):
                report.append(
                    f"vertex adjacency of facets {i},{j} disagrees with the flip graph"
                )
    # facet-defining halfspaces
    defining = []
    seen = set()
    for (normal, bound) in halfspaces:
        if all(x == 0 for x in normal):
            continue
        if (normal, bound) in seen:
            continue
        seen.add((normal, bound))
        tight_pts = [v for v in vertices if vec_dot(normal, v) == bound]
        if not tight_pts:
            continue
        diffs = [
            [a - b for a, b in zip(v, tight_pts[0])] for v in tight_pts[1:]
        ]
        arank = _rank(diffs) if diffs else 0
        if arank == d - 1:
            defining.append((normal, bound))
    if report:
        raise VHMismatch("; ".join(report))
    return Polytope(
        vertices=tuple(vertices),
        halfspaces=halfspaces,
        defining=tuple(sorted(set(defining))),
        report=(),
    )

