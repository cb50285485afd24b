"""Command-line front end.

Subcommands parse a quiver (JSON file or family:NAME:ARG), run one analysis
and emit a byte-stable JSON (or DOT) document.  Exit codes: 0 success,
1 parse error, 2 validation error, 3 bound exceeded (partial output written).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

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
    d_vector,
    dual_basis_check,
    facet_matrices,
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
    crossing_count,
    curve_of_walk,
    dual_dissection,
    quiver_from_surface,
    strip_dual,
    surface_dump,
    surface_from_quiver,
    surface_invariants,
    surfaces_isomorphic,
    swap_dissections,
)
from .walks import enumerate_walks, kn_pair


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
        q = families.parse_family(spec)
    else:
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {spec!r}: {exc}") from exc
        q = quiver_from_json(text)
    return validate_locally_gentle(q)


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


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
            "facets": len(g.facets),
            "closed": g.closed,
            "facet_walks": [list(f.key) for f in g.facets],
        },
        args,
    )
    return 0 if g.closed else 3


def _flipgraph_dot(g: FlipGraph) -> str:
    lines = ["digraph flipgraph {"]
    for i, f in enumerate(g.facets):
        label = "; ".join(f.key)
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
                "facets": [list(f.key) for f in g.facets],
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
    bq = blossom(q)
    g = enumerate_facets(q, max_facets=args.max_facets)
    out = []
    for f in g.facets:
        walks, gs, cs = facet_matrices(bq, f)
        out.append(
            {
                "walks": [w.serialize() for w in walks],
                "g": [list(v) for v in gs],
                "c": [list(v) for v in cs],
                "d": [list(d_vector(bq, w)) for w in walks],
                "dual_basis_violations": dual_basis_check(bq, f),
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
    bq = blossom(q)
    g = enumerate_facets(q, max_facets=args.max_facets)
    universe, complete = enumerate_walks(bq, args.body_bound)
    poly = build_associahedron(q, g, universe, complete)
    _emit(
        {
            "coordinates": list(q.vertices),
            "vertices": [[_frac(x) for x in v] for v in poly.vertices],
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
    ok1 = is_isomorphic(quiver_from_surface(s), q)
    ok2 = is_isomorphic(quiver_from_surface(s, "dual"), koszul_dual(q))
    ok3 = surfaces_isomorphic(swap_dissections(s), surface_from_quiver(koszul_dual(q)))
    ok4 = surfaces_isomorphic(dual_dissection(strip_dual(s)), s)
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
            validate_locally_gentle(q)
            bq = blossom(q)
            n0, n1 = len(q.vertices), len(q.arrows)
            if len(bq.quiver.vertices) != 5 * n0 - 2 * n1:
                note(name, ["blossom vertex count"])
            if not is_isomorphic(koszul_dual(koszul_dual(q)), q):
                note(name, ["koszul dual is not an involution"])
            s = surface_from_quiver(q)
            surface_invariants(s)
            if not is_isomorphic(quiver_from_surface(s), q):
                note(name, ["surface roundtrip failed"])
        except NonKissingError as exc:
            note(name, [f"error: {exc}"])
    for name in complete_instances:
        q = corpus[name]
        bq = blossom(q)
        g = enumerate_facets(q)
        note(name, verify_purity(g))
        note(name, verify_thinness(g))
        note(name, verify_distinguished_census(g))
        note(name, walks_through_cycles_check(g))
        note(name, sign_coherence_report(bq, g))
        for f in g.facets:
            note(name, dual_basis_check(bq, f))
        oracle = brute_force_facets(q)
        if sorted(f.key for f in g.facets) != sorted(f.key for f in oracle):
            note(name, ["flip BFS facets differ from the clique oracle"])
        walks, complete = enumerate_walks(bq)
        for w1 in walks:
            for w2 in walks:
                c1, c2 = curve_of_walk(bq, w1), curve_of_walk(bq, w2)
                if crossing_count(bq, c1, c2) != kn_pair(bq, w1, w2):
                    note(name, ["crossing count differs from kissing number"])
    for name in ("a2", "loop"):
        q = corpus[name]
        bq = blossom(q)
        g = enumerate_facets(q)
        fan = build_fan(g)
        note(name, list(fan.report))
        universe, complete = enumerate_walks(bq)
        try:
            build_associahedron(q, g, universe, complete)
        except NonKissingError as exc:
            note(name, [f"polytope: {exc}"])
    return {"ok": not report, "violations": report}


def cmd_selfcheck(args) -> int:
    doc = _selfcheck()
    _emit(doc, args)
    return 0 if doc["ok"] else 2


def build_parser() -> argparse.ArgumentParser:
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
