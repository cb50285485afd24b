"""A byte-stability digest of the CLI over a fixed command set.

Every command runs in process through `cli.main`, and each run feeds its
argv, exit code, stdout, stderr and any file it wrote into the sha256 of
its group and into a total.  A command's group is its subcommand name;
the error paths (parse, validation, usage and bound errors, unreadable
input, unwritable --out) form the group "errors".  The expected digests,
the run count and the exit-code census are committed in digest.json beside
this script, and test_digest.py compares them.

    python3 tests/digest.py            print the digests and the census
    python3 tests/digest.py --record   rewrite digest.json

Re-record only after an intended change of output.  File inputs are
written to a temporary directory: each random quiver is named by the
digest of its JSON text, and the directory's path is replaced by "<tmp>"
wherever it appears, so no digest depends on where the files lie.  Of a
usage error only the last line of stderr counts, as argparse wraps its
usage line to the terminal's width.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "digest.json"

FINITE = (
    "apath:1", "apath:2", "apath:3", "apath:4", "apath:5",
    "cambrian:FR", "cambrian:RF", "cambrian:FRF", "cambrian:RFR",
    "reversedpath:2", "reversedpath:3", "reversedpath:4",
    "cycle:1", "cycle:2", "cycle:3",
)
INFINITE = (
    "doublecycle:1", "doublecycle:2", "doublecycle:3",
    "doublepath:2", "doublepath:3", "doublepath:4",
)
PLAIN = ("validate", "blossom", "dual", "surface", "roundtrip")
GRAPH = ("facets", "flipgraph", "vectors", "fan", "polytope")
RANDOM_SEEDS = range(70)

# hand-written inputs for the parse and validation errors, by file name
BAD_INPUTS = {
    "garbage.json": "not json\n",
    "list.json": "[]\n",
    "extra-field.json": json.dumps({"vertices": [], "arrows": [], "colour": 1}),
    "no-arrows.json": json.dumps({"vertices": ["1"]}),
    "duplicate-vertex.json": json.dumps({"vertices": ["1", "1"], "arrows": []}),
    "bad-arrow.json": json.dumps({"vertices": ["1"], "arrows": [["a", "1", "1"]]}),
    "three-out.json": json.dumps({
        "vertices": ["1", "2"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2"},
            {"id": "b", "src": "1", "tgt": "2"},
            {"id": "c", "src": "1", "tgt": "1"},
        ],
    }),
    "non-composable.json": json.dumps({
        "vertices": ["1", "2", "3"],
        "arrows": [{"id": "a", "src": "1", "tgt": "2"}, {"id": "b", "src": "1", "tgt": "3"}],
        "relations": [["a", "b"]],
    }),
    "two-free.json": json.dumps({
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2"},
            {"id": "b", "src": "3", "tgt": "2"},
            {"id": "c", "src": "2", "tgt": "3"},
        ],
    }),
}


def commands(tmp: Path) -> list[tuple[str, list[str]]]:
    """(group, argv) of every run, writing the file inputs into tmp."""
    from nonkissing.families import random_locally_gentle

    runs = []
    for spec in FINITE:
        arg = f"family:{spec}"
        for name in (*PLAIN, "walks", *GRAPH):
            runs.append((name, [name, arg]))
        runs.append(("flipgraph", ["flipgraph", arg, "--format", "dot"]))
        runs.append(("facets", ["facets", arg, "--max-facets", "3"]))
    for spec in INFINITE:
        arg = f"family:{spec}"
        runs.extend((name, [name, arg]) for name in PLAIN)
        for cap in ("15", "40"):
            runs.extend((name, [name, arg, "--max-facets", cap]) for name in GRAPH)
        runs.append(("walks", ["walks", arg, "--body-bound", "10"]))
    for seed in RANDOM_SEEDS:
        text = random_locally_gentle(random.Random(seed), 4).to_json()
        path = tmp / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
        path.write_text(text)
        runs.extend((name, [name, str(path)]) for name in PLAIN)
        runs.append(("walks", ["walks", str(path), "--body-bound", "8"]))
        runs.extend((name, [name, str(path), "--max-facets", "60"]) for name in GRAPH)
    runs.append(("selfcheck", ["selfcheck"]))
    for name, text in BAD_INPUTS.items():
        (tmp / name).write_text(text)
        runs.append(("errors", ["validate", str(tmp / name)]))
    errors = [
        # parse errors in family specs
        ["validate", "family:apath"],
        ["validate", "family:bogus:1"],
        ["validate", "family:apath:x"],
        ["validate", "family:apath:0"],
        ["facets", "family:cambrian:FXR"],
        # usage errors
        ["validate"],
        ["selfcheck", "extra"],
        ["facets", "family:apath:2", "--max-facets", "x"],
        ["flipgraph", "family:apath:2", "--format", "svg"],
        ["walks", "family:apath:2", "--body-bound", "0"],
        ["vectors", "family:apath:2", "--max-facets", "-1"],
        # bound errors
        ["polytope", "family:doublecycle:1"],
        ["fan", "family:apath:3", "--max-facets", "3"],
        ["polytope", "family:apath:3", "--max-facets", "2"],
        ["walks", "family:apath:3", "--body-bound", "1"],
        # unreadable input and unwritable --out
        ["validate", str(tmp / "missing.json")],
        ["validate", str(tmp)],
        ["validate", "family:apath:2", "--out", str(tmp / "missing" / "out.json")],
        ["validate", "family:apath:2", "--out", str(tmp)],
        # a written --out, whose file is read back
        ["vectors", "family:apath:2", "--out", str(tmp / "out.json")],
    ]
    runs.extend(("errors", argv) for argv in errors)
    return runs


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cli.main(argv)`; a usage error keeps
    only the last line of stderr."""
    from nonkissing.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
            err = io.StringIO(err.getvalue().splitlines()[-1] + "\n")
    return code, out.getvalue(), err.getvalue()


def compute() -> dict:
    """The digest record: one sha256 per group and in total, with the run
    count and the census of exit codes."""
    groups: dict = {}
    total = hashlib.sha256()
    exits: Counter = Counter()
    with tempfile.TemporaryDirectory(prefix="digest-") as name:
        tmp = Path(name)
        runs = commands(tmp)
        for group, argv in runs:
            code, out, err = run(argv)
            exits[code] += 1
            written = tmp / "out.json"
            if "--out" in argv and written.is_file():
                out += written.read_text()
                written.unlink()
            record = "\0".join((" ".join(argv), str(code), out, err)).replace(name, "<tmp>")
            for h in (groups.setdefault(group, hashlib.sha256()), total):
                h.update(record.encode() + b"\0\0")
    return {
        "groups": {g: h.hexdigest() for g, h in sorted(groups.items())},
        "total": total.hexdigest(),
        "runs": len(runs),
        "exits": {str(c): n for c, n in sorted(exits.items())},
    }


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def differences(got: dict, want: dict) -> list[str]:
    """What differs between two digest records, naming each group."""
    bad = [
        f"group {g}: {got['groups'].get(g)} != expected {want['groups'].get(g)}"
        for g in sorted(set(got["groups"]) | set(want["groups"]))
        if got["groups"].get(g) != want["groups"].get(g)
    ]
    for key in ("runs", "exits", "total"):
        if got[key] != want[key]:
            bad.append(f"{key}: {got[key]} != expected {want[key]}")
    return bad


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="the CLI byte-stability digest")
    parser.add_argument("--record", action="store_true", help=f"rewrite {EXPECTED.name}")
    record = parser.parse_args().record
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    got = compute()
    print(json.dumps(got, indent=1))
    if record:
        EXPECTED.write_text(json.dumps(got, indent=1) + "\n")
        print(f"recorded {got['runs']} runs in {EXPECTED}")
    else:
        bad = differences(got, load_expected()) if EXPECTED.is_file() else ["no digest.json"]
        print("\n".join(bad) or "matches digest.json")
        sys.exit(1 if bad else 0)
