"""Command-line front end.

Subcommands parse a quiver (JSON file or family:NAME:ARG), run one analysis
and emit a byte-stable JSON (or DOT) document.  Exit codes: 0 success,
1 parse error, 2 validation error, 3 bound exceeded (partial output written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import families
from .errors import NonKissingError, ParseError, QuiverError
from .facets import (
    FlipGraph,
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
    canonical_key,
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
    swap_dissections,
    walk_of_curve,
)
from .walks import enumerate_walks


def _emit(doc, args) -> None:
    if isinstance(doc, str):
        text = doc
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_quiver(args) -> BoundQuiver:
    spec = args.input
    if spec.startswith("family:"):
        return families.parse_family(spec)
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {spec!r}: {exc}") from exc
    return quiver_from_json(text)


def cmd_validate(args) -> int:
    q = _load_quiver(args)
    _emit(
        {
            "valid": True,
            "vertices": len(q.vertices),
            "arrows": len(q.arrows),
            "relations": len(q.relations),
        },
        args,
    )
    return 0


def cmd_blossom(args) -> int:
    q = _load_quiver(args)
    bq = blossom(q)
    doc = bq.quiver.to_dict()
    doc["blossom_vertices"] = sorted(bq.blossom_vertices)
    doc["blossom_arrows"] = sorted(bq.blossom_arrows)
    _emit(doc, args)
    return 0


def cmd_dual(args) -> int:
    q = _load_quiver(args)
    _emit(koszul_dual(q).to_dict(), args)
    return 0


def cmd_walks(args) -> int:
    q = _load_quiver(args)
    bq = blossom(q)
    walks, complete = enumerate_walks(bq, args.body_bound)
    _emit(
        {
            "complete": complete,
            "count": len(walks),
            "walks": [w.serialize() for w in walks],
        },
        args,
    )
    return 0 if complete else 3


def cmd_facets(args) -> int:
    q = _load_quiver(args)
    g = enumerate_facets(q, max_facets=args.max_facets)
    _emit(
        {
            "facets": len(g.ids),
            "closed": g.closed,
            "facet_walks": [[g.ctx.keys[w] for w in ids] for ids in g.ids],
        },
        args,
    )
    return 0 if g.closed else 3


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


def cmd_flipgraph(args) -> int:
    q = _load_quiver(args)
    g = enumerate_facets(q, max_facets=args.max_facets)
    if args.format == "dot":
        _emit(_flipgraph_dot(g), args)
    else:
        _emit(
            {
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
            },
            args,
        )
    return 0 if g.closed else 3


def cmd_vectors(args) -> int:
    q = _load_quiver(args)
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
    _emit({"closed": g.closed, "coordinates": list(q.vertices), "facets": out}, args)
    return 0 if g.closed else 3


def cmd_fan(args) -> int:
    q = _load_quiver(args)
    g = enumerate_facets(q, max_facets=args.max_facets)
    fan = build_fan(g)
    _emit(
        {
            "cones": [[list(r) for r in cone.rays] for cone in fan.cones],
            "simplicial_complete": fan.complete_and_simplicial,
            "report": list(fan.report),
        },
        args,
    )
    return 0


def cmd_polytope(args) -> int:
    q = _load_quiver(args)
    g = enumerate_facets(q, max_facets=args.max_facets)
    universe, complete = enumerate_walks(g.ctx.bq, args.body_bound)
    poly = build_associahedron(q, g, universe, complete)
    _emit(
        {
            "coordinates": list(q.vertices),
            "vertices": [[f"{x}/1" for x in v] for v in poly.vertices],
            "halfspaces": [
                {"normal": list(n), "offset": b} for n, b in poly.halfspaces
            ],
            "defining_halfspaces": [
                {"normal": list(n), "offset": b} for n, b in poly.defining
            ],
        },
        args,
    )
    return 0


def cmd_surface(args) -> int:
    q = _load_quiver(args)
    s = surface_from_quiver(q)
    inv = surface_invariants(s)
    doc = dict(inv)
    if args.format == "json":
        doc["halfedges"] = surface_dump(s)
    _emit(doc, args)
    return 0


def cmd_roundtrip(args) -> int:
    q = _load_quiver(args)
    s = surface_from_quiver(q)
    key = s.canonical_key()
    key_dual = surface_from_quiver(koszul_dual(q)).canonical_key()
    ok1 = canonical_key(quiver_from_surface(s)) == key
    ok2 = canonical_key(quiver_from_surface(s, "dual")) == key_dual
    ok3 = swap_dissections(s).canonical_key() == key_dual
    ok4 = dual_dissection(strip_dual(s)).canonical_key() == key
    _emit(
        {
            "quiver_roundtrip": "ok" if ok1 else "FAIL",
            "koszul_dual_reading": "ok" if ok2 else "FAIL",
            "koszul_swap": "ok" if ok3 else "FAIL",
            "dual_reconstruction": "ok" if ok4 else "FAIL",
        },
        args,
    )
    return 0 if (ok1 and ok2 and ok3 and ok4) else 2


def _selfcheck() -> dict:
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
        walks, complete = enumerate_walks(ctx.bq)
        for w in walks:
            if walk_of_curve(ctx.bq, curve_of_walk(ctx.bq, w)) != w:
                note(name, [f"curve of {w.serialize()} reads back as another walk"])
    for name in geometry_instances:
        g = graphs[name]
        fan = build_fan(g)
        note(name, list(fan.report))
        universe, complete = enumerate_walks(g.ctx.bq)
        try:
            build_associahedron(corpus[name], g, universe, complete)
        except NonKissingError as exc:
            note(name, [f"polytope: {exc}"])
    return {"ok": not report, "violations": report}


def cmd_selfcheck(args) -> int:
    doc = _selfcheck()
    _emit(doc, args)
    return 0 if doc["ok"] else 2


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
    commands = {
        "validate": cmd_validate,
        "blossom": cmd_blossom,
        "dual": cmd_dual,
        "walks": cmd_walks,
        "facets": cmd_facets,
        "flipgraph": cmd_flipgraph,
        "vectors": cmd_vectors,
        "fan": cmd_fan,
        "polytope": cmd_polytope,
        "surface": cmd_surface,
        "roundtrip": cmd_roundtrip,
        "selfcheck": cmd_selfcheck,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        if name != "selfcheck":
            p.add_argument("input", help="quiver JSON path or family:NAME:ARG")
        p.add_argument("--max-facets", type=int, default=10000)
        p.add_argument("--body-bound", type=int, default=64)
        p.add_argument("--format", choices=("json", "dot"), default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_facets < 1 or args.body_bound < 1:
        print("error: bounds must be positive", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except QuiverError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NonKissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
