"""Output checks: a command fails if its exit code, its stdout digest or a rule
that holds for every seed says so.

Goldens are stdout digests recorded with `python3 bench/checks.py --record`
for the default seed of every workload; a command whose key has no golden is
still checked against its own repetitions and against the rules below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def rule_violations(cmd, code: int, out: str) -> list[str]:
    """Rules every seed must satisfy, read from the command's JSON output."""
    if code != cmd.expect_exit:
        return [f"exit {code}, expected {cmd.expect_exit}"]
    try:
        doc = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    name = cmd.argv[0]
    bad = []
    n = cmd.expect_facets
    if name == "facets":
        if n is not None and doc["facets"] != n:
            bad.append(f"{doc['facets']} facets, expected {n}")
        if cmd.cap is not None and (doc["closed"] or doc["facets"] != cmd.cap):
            bad.append("capped run must stop at the cap with closed=false")
        if len(doc["facet_walks"]) != doc["facets"]:
            bad.append("facet_walks length differs from facets")
    elif name in ("flipgraph", "vectors"):
        if n is not None and (len(doc["facets"]) != n or not doc["closed"]):
            bad.append(f"{len(doc['facets'])} facets, expected {n} and closed")
    elif name == "fan":
        if len(doc["cones"]) != n or not doc["simplicial_complete"]:
            bad.append(f"{len(doc['cones'])} cones, expected {n} and a complete simplicial fan")
    elif name == "polytope":
        if len(doc["vertices"]) != n:
            bad.append(f"{len(doc['vertices'])} polytope vertices, expected one per facet ({n})")
    elif name == "walks":
        if doc["complete"] or doc["count"] != len(doc["walks"]):
            bad.append("capped walk enumeration must report complete=false and its count")
    elif name == "roundtrip":
        bad.extend(f"roundtrip {k}: {v}" for k, v in sorted(doc.items()) if v != "ok")
    elif name == "selfcheck":
        if doc.get("ok") is not True:
            bad.append(f"selfcheck violations: {sorted(doc.get('violations', {}))}")
    elif name == "validate":
        if doc.get("valid") is not True:
            bad.append("validate did not report valid")
    return bad


class Checker:
    """Counts failures over a run: exit code, rules, goldens and repetitions."""

    def __init__(self) -> None:
        self.goldens = load_goldens()
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, cmd, code: int | None, out: str, error: str | None = None) -> bool:
        self.attempted += 1
        if error is not None:
            bad = [error]
        else:
            bad = rule_violations(cmd, code, out)
            d = digest(out)
            golden = self.goldens.get(cmd.key)
            if golden is not None and d != golden:
                bad.append(f"stdout digest {d} differs from golden {golden}")
            if self.first.setdefault(cmd.key, d) != d:
                bad.append("stdout differs from an earlier repetition in this run")
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{cmd.key}: {'; '.join(bad)}")
        return not bad


def record() -> None:
    """Write goldens for the default seed of every workload."""
    import shutil
    import tempfile

    import workloads
    from run import run_command

    main = workloads.import_program().main
    goldens = {}
    tmp = Path(tempfile.mkdtemp(prefix="goldens-", dir=workloads.ROOT))
    try:
        for name in workloads.WORKLOADS:
            for cmd in workloads.prepare(name, workloads.DEFAULT_SEED, tmp / name):
                code, out, _ = run_command(main, cmd.argv)
                bad = rule_violations(cmd, code, out)
                if bad:
                    raise SystemExit(f"refusing to record {cmd.key}: {bad}")
                goldens[cmd.key] = digest(out)
    finally:
        shutil.rmtree(tmp)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} goldens in {GOLDENS}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="record stdout goldens for the default seed")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    record()
