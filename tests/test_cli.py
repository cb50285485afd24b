"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from nonkissing.cli import build_parser, main
from nonkissing.families import a_path


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(a_path(2).to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_facets_a2(capsys, a2_file):
    code, out = run(capsys, "facets", a2_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["facets"] == 5
    assert doc["closed"] is True


def test_surface_loop(capsys):
    code, out = run(capsys, "surface", "family:cycle:1")
    doc = json.loads(out)
    assert code == 0
    assert (doc["b"], doc["punctures"], doc["genus"]) == (1, 1, 0)


def test_roundtrip_doublepath3(capsys):
    code, out = run(capsys, "roundtrip", "family:doublepath:3")
    doc = json.loads(out)
    assert code == 0
    assert doc["quiver_roundtrip"] == "ok"
    assert doc["koszul_swap"] == "ok"


def test_walks_loop_complete(capsys):
    code, out = run(capsys, "walks", "family:cycle:1")
    doc = json.loads(out)
    assert code == 0
    assert doc["complete"] is True
    assert doc["count"] == 5


def test_byte_identical_reruns(capsys, a2_file):
    outputs = set()
    for _ in range(3):
        for cmd in ("facets", "vectors", "polytope", "surface"):
            _, out = run(capsys, cmd, a2_file)
            outputs.add((cmd, out))
    assert len(outputs) == 4


def test_validate_and_dual(capsys, a2_file):
    code, out = run(capsys, "validate", a2_file)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out = run(capsys, "dual", a2_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["arrows"][0]["src"] == "v2"
    assert doc["relations"] == [["a1", "a1"]] or doc["relations"] == []


def test_blossom_counts(capsys, a2_file):
    code, out = run(capsys, "blossom", a2_file)
    doc = json.loads(out)
    assert len(doc["vertices"]) == 8
    assert len(doc["blossom_arrows"]) == 6


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", str(bad)])
    assert code == 1
    code = main(["validate", str(tmp_path / "missing.json")])
    assert code == 1


def test_validation_error_exit_2(capsys, tmp_path):
    doc = {
        "vertices": ["1", "2"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2"},
            {"id": "b", "src": "1", "tgt": "2"},
            {"id": "c", "src": "1", "tgt": "1"},
        ],
        "relations": [],
    }
    path = tmp_path / "bad_quiver.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_bound_exceeded_exit_3_with_partial_output(capsys, tmp_path):
    doc = {
        "vertices": ["v0", "v1", "v2", "v3", "v4"],
        "arrows": [
            {"id": "w", "src": "v0", "tgt": "v1"},
            {"id": "x", "src": "v1", "tgt": "v2"},
            {"id": "y", "src": "v2", "tgt": "v3"},
            {"id": "z", "src": "v3", "tgt": "v1"},
            {"id": "u", "src": "v2", "tgt": "v4"},
        ],
        "relations": [["w", "x"], ["x", "u"]],
    }
    path = tmp_path / "chord.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "walks", str(path), "--body-bound", "3")
    assert code == 3
    assert json.loads(out)["complete"] is False


def test_max_facets_truncation(capsys):
    code, out = run(capsys, "facets", "family:apath:3", "--max-facets", "2")
    doc = json.loads(out)
    assert code == 3
    assert doc["closed"] is False
    assert doc["facets"] == 2


def test_flipgraph_dot(capsys, a2_file):
    code, out = run(capsys, "flipgraph", a2_file, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    edges = [ln for ln in out.splitlines() if "-> n" in ln]
    assert len(edges) == 10  # five undirected flips, both directions


def test_out_flag_writes_file(tmp_path, a2_file):
    target = tmp_path / "out.json"
    code = main(["fan", a2_file, "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["simplicial_complete"] is True


def test_bad_bounds_exit_1():
    assert main(["facets", "family:apath:2", "--max-facets", "0"]) == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "family:apath:2", "--unroll", "1"])
    assert exc.value.code == 2


def test_family_spec_errors():
    assert main(["validate", "family:nosuch:3"]) == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_interleaved_calls_repeat_their_first_output(capsys, tmp_path, a2_file):
    calls = [
        ("validate", a2_file),
        ("flipgraph", a2_file, "--format", "dot"),
        ("flipgraph", a2_file),
        ("surface", "family:cycle:1"),
        ("fan", a2_file, "--out", str(tmp_path / "fan.json")),
        ("fan", a2_file),
        ("roundtrip", "family:doublepath:3"),
        ("walks", "family:cycle:1", "--body-bound", "2"),
        ("walks", "family:cycle:1"),
    ]
    first = {}
    for _ in range(2):
        for argv in calls:
            first.setdefault(argv, run(capsys, *argv))
            assert run(capsys, *argv) == first[argv]
    # a flag given to one call does not leak into the next
    assert first[calls[1]][1].startswith("digraph")
    assert json.loads(first[calls[2]][1])["closed"] is True
    assert first[calls[4]][1] == ""
    assert json.loads(first[calls[5]][1])["simplicial_complete"] is True
    assert first[calls[7]][0] == 3 and first[calls[8]][0] == 0


def test_unknown_flag_after_a_successful_call_is_usage_error(capsys):
    assert main(["validate", "family:apath:2"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["validate", "family:apath:2", "--unroll", "1"])
    assert exc.value.code == 2
    assert main(["validate", "family:apath:2"]) == 0


GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"
FLIP_GOLDENS = {
    key: digest
    for key, digest in json.loads(GOLDENS.read_text()).items()
    if key.split()[0] in ("facets", "flipgraph") and "family:" in key
}


@pytest.mark.parametrize("key", sorted(FLIP_GOLDENS))
def test_flip_outputs_match_benchmark_goldens(capsys, key):
    # the benchmark's stdout digests: facet and edge order may not drift
    main(key.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == FLIP_GOLDENS[key]
