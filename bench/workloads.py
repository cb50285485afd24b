"""Workload definitions: the CLI commands each workload runs, built from a seed.

`prepare(workload, seed, workdir)` generates the inputs (family specs, plus
quiver JSON files written into `workdir`), validates them and returns the
command list.  Run as a script it does only that and exits, which is how the
benchmark times set-up from a fresh interpreter, of the program or of the
frozen reference copy in `bench/reference/`:

    python3 bench/workloads.py --workload iso-surface --seed 0 --workdir DIR [--program reference]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The program under test, and a frozen copy of it as of the benchmark's
# definition that run.py times next to it: name -> (directory put on
# sys.path, package).
PROGRAMS = {
    "program": (SRC, "nonkissing"),
    "reference": (BENCH / "reference", "frozen_nonkissing"),
}
# Reference speed: the frozen reference's seconds for one pass over the
# workload's commands, its median command and one set-up, on the default seed,
# at the median speed of a shared 2-vCPU Xeon (2.0 GHz) virtual machine.
# run.py reports the program's times at this speed (see its docstring).
REFERENCE_SPEED = {
    "finite-complex": {"pass_s": 5.7, "cmd_p50_s": 0.165, "setup_s": 0.29},
    "infinite-capped": {"pass_s": 4.1, "cmd_p50_s": 0.155, "setup_s": 0.39},
    "iso-surface": {"pass_s": 5.9, "cmd_p50_s": 0.0049, "setup_s": 0.54},
}

DEFAULT_SEED = 0
ISO_QUIVERS = 100
ISO_MAX_VERTICES = 8

# The commands that no workload runs, and why.
NOT_COVERED = [
    "default-bound runs on infinite-type quivers (for example `walks "
    "family:doublepath:3` at the default --body-bound 64) are left out because "
    "they do not terminate in practical time, not to hide them; bounded work "
    "on every input is ROADMAP item 5",
]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    key: str  # identity for goldens: argv with input files named by content digest
    group: str  # label for per-command trace breakdowns
    expect_exit: int = 0
    expect_facets: int | None = None  # exact facet count for closed flip graphs
    cap: int | None = None  # --max-facets of a capped command
    random_quiver: bool = False  # one of the iso-surface random quivers


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def expected_facets(spec: str) -> int | None:
    """Facet count of a finite-type family spec, from the closed formulas."""
    _, name, arg = spec.split(":")
    if name == "cambrian":
        return catalan(len(arg) + 2)
    n = int(arg)
    if name == "apath":
        return catalan(n + 1)
    if name == "reversedpath":
        return math.factorial(n + 1)
    if name == "cycle":
        return math.comb(2 * n, n)
    return None


def _nonlinear_pattern(rng: random.Random, letters: int) -> str:
    """A Cambrian pattern with both F and R.  All-F and all-R are the linear
    orientation, the same quiver as `apath` up to relabelling, which the
    workload already runs."""
    patterns = ["".join(p) for p in itertools.product("FR", repeat=letters)]
    return rng.choice([p for p in patterns if "F" in p and "R" in p])


def _family(argv: list[str], group: str, **kw) -> Command:
    return Command(tuple(argv), " ".join(argv), group, **kw)


def finite_complex(seed: int, workdir: Path, package: str) -> list[Command]:
    """Closed flip graphs: BFS, fan and exact V/H polytope all run."""
    rng = random.Random(f"finite-complex:{seed}")
    camb3 = "family:cambrian:" + _nonlinear_pattern(rng, 3)
    camb4 = "family:cambrian:" + _nonlinear_pattern(rng, 4)
    cmds = []
    for spec in ("family:apath:4", camb3, "family:reversedpath:3", "family:cycle:3"):
        n = expected_facets(spec)
        label = spec.split(":")[1]
        for command in ("facets", "flipgraph", "vectors", "fan", "polytope"):
            cmds.append(_family([command, spec], f"{command} {label}", expect_facets=n))
    cmds.append(_family(["facets", camb4], "facets cambrian4", expect_facets=expected_facets(camb4)))
    cmds.append(_family(["selfcheck"], "selfcheck"))
    return cmds


def infinite_capped(seed: int, workdir: Path, package: str) -> list[Command]:
    """Infinite-type quivers at fixed caps; every command exits 3.  Seed-free."""
    cmds = []
    for spec, cap in (
        ("family:doublecycle:2", 5),
        ("family:doublecycle:2", 10),
        ("family:doublecycle:2", 15),
        ("family:doublepath:3", 40),
        ("family:doublepath:4", 20),
    ):
        label = f"facets {spec.split(':', 1)[1]} cap{cap}"
        cmds.append(_family(["facets", spec, "--max-facets", str(cap)], label, expect_exit=3, cap=cap))
    for spec, bound in (
        ("family:doublecycle:1", 16),
        ("family:doublecycle:2", 12),
        ("family:doublepath:3", 16),
        ("family:doublepath:4", 14),
    ):
        label = f"walks {spec.split(':', 1)[1]} body{bound}"
        cmds.append(_family(["walks", spec, "--body-bound", str(bound)], label, expect_exit=3))
    return cmds


def _stratified_quivers(seed: int, package: str):
    """ISO_QUIVERS random locally gentle quivers with the same number of
    quivers of each vertex count for every seed.

    The vertex counts are drawn once from a fixed generator; each seed then
    draws from its own generator and keeps the first quivers of each needed
    vertex count.  Per-quiver cost grows with size, so this keeps the
    workload's total cost from swinging with the seed, while the quivers
    (arrows, relations, cycles) still change with it.
    """
    random_locally_gentle = importlib.import_module(f"{package}.families").random_locally_gentle
    ref = random.Random("iso-surface:profile")
    need: dict[int, int] = {}
    for _ in range(ISO_QUIVERS):
        n = len(random_locally_gentle(ref, max_vertices=ISO_MAX_VERTICES).vertices)
        need[n] = need.get(n, 0) + 1
    rng = random.Random(f"iso-surface:{seed}")
    out = []
    while need:
        q = random_locally_gentle(rng, max_vertices=ISO_MAX_VERTICES)
        n = len(q.vertices)
        if need.get(n):
            out.append(q)
            need[n] -= 1
            if not need[n]:
                del need[n]
    return out


def iso_surface(seed: int, workdir: Path, package: str) -> list[Command]:
    """Many small quiver/surface commands on seeded random quivers."""
    quiver = importlib.import_module(f"{package}.quiver")
    cmds = []
    for i, q in enumerate(_stratified_quivers(seed, package)):
        text = q.to_json()
        quiver.validate_locally_gentle(quiver.quiver_from_json(text))
        path = workdir / f"q{i:03d}.json"
        path.write_text(text)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        for command in ("validate", "dual", "surface", "roundtrip"):
            cmds.append(
                Command((command, str(path)), f"{command} json:{digest}", f"{command} random", random_quiver=True)
            )
    for spec in ("family:doublecycle:10", "family:doublepath:12"):
        cmds.append(_family(["roundtrip", spec], f"roundtrip {spec.split(':', 1)[1]}"))
    return cmds


WORKLOADS = {
    "finite-complex": finite_complex,
    "infinite-capped": infinite_capped,
    "iso-surface": iso_surface,
}


def import_program(program: str = "program"):
    """Import one of PROGRAMS from the checkout; return its `cli` module."""
    where, package = PROGRAMS[program]
    if not (where / package / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {where / package}; run from a full checkout")
    if str(where) not in sys.path:
        sys.path.insert(0, str(where))
    return importlib.import_module(f"{package}.cli")


def prepare(workload: str, seed: int, workdir: Path, program: str = "program") -> list[Command]:
    """Generate and validate the workload's inputs with one of PROGRAMS; return its commands."""
    package = PROGRAMS[program][1]
    parse_family = importlib.import_module(f"{package}.families").parse_family
    validate_locally_gentle = importlib.import_module(f"{package}.quiver").validate_locally_gentle
    workdir.mkdir(parents=True, exist_ok=True)
    cmds = WORKLOADS[workload](seed, workdir, package)
    for spec in sorted({a for c in cmds for a in c.argv if a.startswith("family:")}):
        validate_locally_gentle(parse_family(spec))
    return cmds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--program", choices=sorted(PROGRAMS), default="program")
    args = parser.parse_args()
    import_program(args.program)
    prepare(args.workload, args.seed, args.workdir, args.program)


if __name__ == "__main__":
    main()
