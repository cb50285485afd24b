"""Command-line front end.

Each subcommand `cmd_*` maps the input quiver (JSON file or family:NAME:ARG)
and its parsed options to a byte-stable JSON (or DOT) document and an exit
code; `main` alone reads the input and writes the document.  Exit codes:
0 success, 1 parse error, 2 validation error, 3 bound exceeded (partial
output written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import families
from .errors import IncompleteUniverse, NonKissingError, NotClosed, ParseError, QuiverError
from .facets import (
    FlipGraph,
    QuiverContext,
    brute_force_facets,
    enumerate_facets,
    verify_distinguished_census,
    verify_purity,
    verify_thinness,
    walks_through_cycles_check,
)
from .geometry import (
    build_associahedron,
    build_fan,
    d_vectors,
    dual_basis_check,
    graph_matrices,
    sign_coherence_report,
)
from .quiver import (
    BoundQuiver,
    blossom,
    is_isomorphic,
    koszul_dual,
    quiver_from_json,
    validate_locally_gentle,
)
from .surface import (
    curve_of_walk,
    dual_dissection,
    quiver_from_surface,
    strip_dual,
    surface_dump,
    surface_from_quiver,
    surface_invariants,
    surfaces_isomorphic,
    swap_dissections,
    walk_of_curve,
)
from .walks import enumerate_walks, has_band


def _emit(doc, out: str | None) -> None:
    if isinstance(doc, str):
        text = doc
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_quiver(spec: str) -> BoundQuiver:
    if spec.startswith("family:"):
        return families.parse_family(spec)
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {spec!r}: {exc}") from exc
    return quiver_from_json(text)


def cmd_validate(q: BoundQuiver, args) -> tuple[dict, int]:
    return {
        "valid": True,
        "vertices": len(q.vertices),
        "arrows": len(q.arrows),
        "relations": len(q.relations),
    }, 0


def cmd_blossom(q: BoundQuiver, args) -> tuple[dict, int]:
    bq = blossom(q)
    doc = bq.quiver.to_dict()
    doc["blossom_vertices"] = sorted(bq.blossom_vertices)
    doc["blossom_arrows"] = sorted(bq.blossom_arrows)
    return doc, 0


def cmd_dual(q: BoundQuiver, args) -> tuple[dict, int]:
    return koszul_dual(q).to_dict(), 0


def cmd_walks(q: BoundQuiver, args) -> tuple[dict, int]:
    bq = blossom(q)
    walks, complete = enumerate_walks(bq, args.body_bound)
    return {
        "complete": complete,
        "count": len(walks),
        "walks": [w.serialize() for w in walks],
    }, 0 if complete else 3


def cmd_facets(q: BoundQuiver, args) -> tuple[dict, int]:
    g = enumerate_facets(q, max_facets=args.max_facets)
    return {
        "facets": len(g.ids),
        "closed": g.closed,
        "facet_walks": [[g.ctx.keys[w] for w in ids] for ids in g.ids],
    }, 0 if g.closed else 3


def _flipgraph_dot(g: FlipGraph) -> str:
    lines = ["digraph flipgraph {"]
    for i, ids in enumerate(g.ids):
        label = "; ".join(g.ctx.keys[w] for w in ids)
        lines.append(f'  n{i} [label="{i}: {label}"];')
    for e in g.edges:
        lines.append(
            f'  n{e.source} -> n{e.target} '
            f'[label="{e.walk_out} -> {e.walk_in} ({e.direction})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_flipgraph(q: BoundQuiver, args) -> tuple[dict | str, int]:
    g = enumerate_facets(q, max_facets=args.max_facets)
    code = 0 if g.closed else 3
    if args.format == "dot":
        return _flipgraph_dot(g), code
    return {
        "closed": g.closed,
        "facets": [[g.ctx.keys[w] for w in ids] for ids in g.ids],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "walk_out": e.walk_out,
                "walk_in": e.walk_in,
                "direction": e.direction,
            }
            for e in g.edges
        ],
    }, code


def cmd_vectors(q: BoundQuiver, args) -> tuple[dict, int]:
    g = enumerate_facets(q, max_facets=args.max_facets)
    dvecs = d_vectors(g)
    out = []
    for ids, matrices in zip(g.ids, graph_matrices(g)):
        _, gs, cs = matrices
        out.append(
            {
                "walks": [g.ctx.keys[w] for w in ids],
                "g": [list(v) for v in gs],
                "c": [list(v) for v in cs],
                "d": [list(dvecs[w]) for w in ids],
                "dual_basis_violations": dual_basis_check(matrices),
            }
        )
    doc = {"closed": g.closed, "coordinates": list(q.vertices), "facets": out}
    return doc, 0 if g.closed else 3


def cmd_fan(q: BoundQuiver, args) -> tuple[dict, int]:
    g = enumerate_facets(q, max_facets=args.max_facets)
    fan = build_fan(g)
    return {
        "cones": [[list(r) for r in cone.rays] for cone in fan.cones],
        "simplicial_complete": fan.complete_and_simplicial,
        "report": list(fan.report),
    }, 0


def cmd_polytope(q: BoundQuiver, args) -> tuple[dict, int]:
    # with a band the walk universe is infinite and no polytope can be built,
    # so refuse before the flip BFS, which need not close
    ctx = QuiverContext(blossom(q))
    if has_band(ctx.bq):
        raise IncompleteUniverse("polytope construction needs the complete walk set")
    g = enumerate_facets(q, max_facets=args.max_facets, ctx=ctx)
    poly = build_associahedron(g)
    return {
        "coordinates": list(q.vertices),
        "vertices": [[f"{x}/1" for x in v] for v in poly.vertices],
        "halfspaces": [
            {"normal": list(n), "offset": b} for n, b in poly.halfspaces
        ],
        "defining_halfspaces": [
            {"normal": list(n), "offset": b} for n, b in poly.defining
        ],
    }, 0


def cmd_surface(q: BoundQuiver, args) -> tuple[dict, int]:
    s = surface_from_quiver(q)
    doc = dict(surface_invariants(s))
    doc["halfedges"] = surface_dump(s)
    return doc, 0


def cmd_roundtrip(q: BoundQuiver, args) -> tuple[dict, int]:
    """Check the surface bijection both ways on q, up to isomorphism.

    Each check compares labels first (`is_isomorphic`, `surfaces_isomorphic`),
    and canonical keys only when the labels differ: reading the surface back
    gives q and its Koszul dual label for label, and the dual reconstruction
    gives s, so of the four checks only the swap computes keys.
    """
    s = surface_from_quiver(q)
    dual = koszul_dual(q)
    swapped = swap_dissections(s)
    ok1 = is_isomorphic(quiver_from_surface(s), q)
    ok2 = is_isomorphic(quiver_from_surface(swapped), dual)
    ok3 = surfaces_isomorphic(swapped, surface_from_quiver(dual))
    ok4 = surfaces_isomorphic(dual_dissection(strip_dual(s)), s)
    return {
        "quiver_roundtrip": "ok" if ok1 else "FAIL",
        "koszul_dual_reading": "ok" if ok2 else "FAIL",
        "koszul_swap": "ok" if ok3 else "FAIL",
        "dual_reconstruction": "ok" if ok4 else "FAIL",
    }, 0 if (ok1 and ok2 and ok3 and ok4) else 2


def cmd_selfcheck(_: None, args) -> tuple[dict, int]:
    """The invariant suite over the corpus; it reads no input quiver."""
    report: dict[str, list[str]] = {}

    def note(name: str, msgs) -> None:
        if msgs:
            report.setdefault(name, []).extend(msgs)

    corpus = families.corpus()
    complete_instances = [
        "a2", "a3", "cambrian-FRF", "loop", "cycle2", "reversedpath2", "reversedpath3",
    ]
    for name, q in corpus.items():
        try:
            s = surface_from_quiver(q)
            validate_locally_gentle(s.bq.quiver)
            dual = validate_locally_gentle(koszul_dual(q))
            n0, n1 = len(q.vertices), len(q.arrows)
            if len(s.bq.quiver.vertices) != 5 * n0 - 2 * n1:
                note(name, ["blossom vertex count"])
            if koszul_dual(dual) != q:
                note(name, ["koszul dual is not an involution"])
            surface_invariants(s)
            if not is_isomorphic(quiver_from_surface(s), q):
                note(name, ["surface roundtrip failed"])
        except NonKissingError as exc:
            note(name, [f"error: {exc}"])
    geometry_instances = ("a2", "loop")
    graphs = {}  # only the graphs the geometry checks reuse stay alive
    for name in complete_instances:
        q = corpus[name]
        g = enumerate_facets(q)
        if name in geometry_instances:
            graphs[name] = g
        ctx = g.ctx
        note(name, verify_purity(g))
        note(name, verify_thinness(g))
        note(name, verify_distinguished_census(g))
        note(name, walks_through_cycles_check(g))
        matrices = graph_matrices(g)
        note(name, sign_coherence_report(g, matrices))
        for m in matrices:
            note(name, dual_basis_check(m))
        oracle = brute_force_facets(q, ctx=ctx)
        keys = sorted(tuple(ctx.keys[w] for w in ids) for ids in g.ids)
        if keys != sorted(f.key for f in oracle):
            note(name, ["flip BFS facets differ from the clique oracle"])
        for w in map(ctx.walks.__getitem__, ctx.universe("the curve round trip")):
            if walk_of_curve(ctx.bq, curve_of_walk(ctx.bq, w)) != w:
                note(name, [f"curve of {w.serialize()} reads back as another walk"])
    for name in geometry_instances:
        g = graphs[name]
        fan = build_fan(g)
        note(name, list(fan.report))
        try:
            build_associahedron(g)
        except NonKissingError as exc:
            note(name, [f"polytope: {exc}"])
    return {"ok": not report, "violations": report}, 2 if report else 0


# the options a subcommand may take besides --out, which every one takes
OPTIONS = {
    "--max-facets": dict(type=int, default=10000),
    "--body-bound": dict(type=int, default=64),
    "--format": dict(choices=("json", "dot"), default="json"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing leaves the parser unchanged (each call gets a fresh namespace),
    so `main` stays a function of its argv alone; callers must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="nonkissing",
        description="Exact non-kissing / non-crossing complex engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {  # name -> (handler, the OPTIONS it reads)
        "validate": (cmd_validate, ()),
        "blossom": (cmd_blossom, ()),
        "dual": (cmd_dual, ()),
        "walks": (cmd_walks, ("--body-bound",)),
        "facets": (cmd_facets, ("--max-facets",)),
        "flipgraph": (cmd_flipgraph, ("--max-facets", "--format")),
        "vectors": (cmd_vectors, ("--max-facets",)),
        "fan": (cmd_fan, ("--max-facets",)),
        "polytope": (cmd_polytope, ("--max-facets",)),
        "surface": (cmd_surface, ()),
        "roundtrip": (cmd_roundtrip, ()),
        "selfcheck": (cmd_selfcheck, ()),
    }
    for name, (fn, options) in commands.items():
        p = sub.add_parser(name)
        if name != "selfcheck":
            p.add_argument("input", help="quiver JSON path or family:NAME:ARG")
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(getattr(args, bound, 1) < 1 for bound in ("max_facets", "body_bound")):
        print("error: bounds must be positive", file=sys.stderr)
        return 1
    try:
        q = _load_quiver(args.input) if "input" in args else None
        doc, code = args.fn(q, args)
        _emit(doc, args.out)
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except QuiverError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NotClosed, IncompleteUniverse) as exc:  # a bound cut the input short
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonKissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
