"""Built-in quiver families used as the test corpus, plus a random generator."""

from __future__ import annotations

import random

from .errors import ParseError
from .quiver import BoundQuiver, make_quiver


def a_path(n: int) -> BoundQuiver:
    """Linearly oriented type-A path on n vertices, no relations."""
    return cambrian("F" * (n - 1))


def cambrian(pattern: str) -> BoundQuiver:
    """Any orientation of a line, no relations.

    pattern[i] is 'F' for an arrow i+1 -> i+2 and 'R' for the reverse.
    """
    n = len(pattern) + 1
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = []
    for i, ch in enumerate(pattern):
        if ch == "F":
            arrows.append((f"a{i + 1}", f"v{i + 1}", f"v{i + 2}"))
        elif ch == "R":
            arrows.append((f"a{i + 1}", f"v{i + 2}", f"v{i + 1}"))
        else:
            raise ParseError(f"cambrian pattern characters must be F or R, got {ch!r}")
    return make_quiver(vertices, arrows)


def reversed_path(n: int) -> BoundQuiver:
    """Arrows both ways along a path, with both compositions at each edge dead."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = []
    relations = []
    for i in range(1, n):
        arrows.append((f"a{i}", f"v{i}", f"v{i + 1}"))
        arrows.append((f"b{i}", f"v{i + 1}", f"v{i}"))
        relations.append((f"a{i}", f"b{i}"))
        relations.append((f"b{i}", f"a{i}"))
    return make_quiver(vertices, arrows, relations)


def double_path(n: int) -> BoundQuiver:
    """Two parallel arrows per edge; relations swap the strands."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = []
    relations = []
    for i in range(1, n):
        arrows.append((f"a{i}", f"v{i}", f"v{i + 1}"))
        arrows.append((f"b{i}", f"v{i}", f"v{i + 1}"))
    for i in range(1, n - 1):
        relations.append((f"a{i}", f"b{i + 1}"))
        relations.append((f"b{i}", f"a{i + 1}"))
    return make_quiver(vertices, arrows, relations)


def cycle_quiver(n: int) -> BoundQuiver:
    """Oriented n-cycle, no relations."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = [(f"a{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
    return make_quiver(vertices, arrows)


def double_cycle(n: int) -> BoundQuiver:
    """Two parallel arrows along an n-cycle; same-strand compositions dead."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = []
    relations = []
    for i in range(1, n + 1):
        j = i % n + 1
        arrows.append((f"a{i}", f"v{i}", f"v{j}"))
        arrows.append((f"b{i}", f"v{i}", f"v{j}"))
    for i in range(1, n + 1):
        j = i % n + 1
        relations.append((f"a{i}", f"a{j}"))
        relations.append((f"b{i}", f"b{j}"))
    return make_quiver(vertices, arrows, relations)


def loop_quiver() -> BoundQuiver:
    """Single vertex with one relation-free loop (the 1-cycle)."""
    return cycle_quiver(1)


def parse_family(spec: str) -> BoundQuiver:
    """Parse 'family:NAME:ARG' strings used by the CLI."""
    parts = spec.split(":")
    if parts[0] != "family" or len(parts) != 3:
        raise ParseError(f"bad family spec {spec!r}; expected family:NAME:ARG")
    name, arg = parts[1], parts[2]
    if name == "cambrian":
        return cambrian(arg)
    makers = {
        "apath": a_path,
        "reversedpath": reversed_path,
        "doublepath": double_path,
        "cycle": cycle_quiver,
        "doublecycle": double_cycle,
    }
    if name not in makers:
        raise ParseError(f"unknown family {name!r}")
    try:
        n = int(arg)
    except ValueError as exc:
        raise ParseError(f"family argument must be an integer, got {arg!r}") from exc
    if n < 1:
        raise ParseError("family size must be at least 1")
    return makers[name](n)


def corpus() -> dict[str, BoundQuiver]:
    """The built-in instances exercised by the self-check and acceptance suite."""
    out = {
        "a2": a_path(2),
        "a3": a_path(3),
        "cambrian-FRF": cambrian("FRF"),
        "loop": loop_quiver(),
        "cycle2": cycle_quiver(2),
        "cycle3": cycle_quiver(3),
        "reversedpath2": reversed_path(2),
        "reversedpath3": reversed_path(3),
        "doublepath2": double_path(2),
        "doublepath3": double_path(3),
        "doublepath4": double_path(4),
        "doublecycle1": double_cycle(1),
        "doublecycle2": double_cycle(2),
        "doublecycle3": double_cycle(3),
        "doublecycle4": double_cycle(4),
    }
    return out


def random_locally_gentle(rng: random.Random, max_vertices: int = 8) -> BoundQuiver:
    """A random valid locally gentle bound quiver with <= max_vertices vertices.

    Arrows are inserted while respecting the degree bounds; relations are then
    chosen per vertex so the branching condition holds.
    """
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    out_deg = {v: 0 for v in vertices}
    in_deg = {v: 0 for v in vertices}
    arrows = []
    n_arrows = rng.randint(0, 2 * n)
    k = 0
    for _ in range(4 * n_arrows):
        if len(arrows) >= n_arrows:
            break
        s = rng.choice(vertices)
        t = rng.choice(vertices)
        if out_deg[s] >= 2 or in_deg[t] >= 2:
            continue
        k += 1
        arrows.append((f"a{k}", s, t))
        out_deg[s] += 1
        in_deg[t] += 1
    q0 = BoundQuiver(
        vertices=tuple(sorted(vertices)),
        arrows=tuple(sorted(arrows)),
        relations=frozenset(),
    )
    relations = set()
    for v in vertices:
        ins = sorted(q0.arrows_in[v])
        outs = sorted(q0.arrows_out[v])
        if not ins or not outs:
            continue
        if len(ins) == 1 and len(outs) == 1:
            if rng.random() < 0.5:
                relations.add((ins[0], outs[0]))
        elif len(ins) == 1:
            # exactly one of the two compositions must die
            dead = rng.choice(outs)
            relations.add((ins[0], dead))
        elif len(outs) == 1:
            dead = rng.choice(ins)
            relations.add((dead, outs[0]))
        else:
            # perfect matching, complement relation-free
            if rng.random() < 0.5:
                relations.add((ins[0], outs[0]))
                relations.add((ins[1], outs[1]))
            else:
                relations.add((ins[0], outs[1]))
                relations.add((ins[1], outs[0]))
    return make_quiver(vertices, arrows, relations)
