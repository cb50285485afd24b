"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from nonkissing import quiver as quiver_module
from nonkissing import surface as surface_module
from nonkissing import walks as walks_module
from nonkissing.cli import build_parser, main
from nonkissing.families import a_path, random_locally_gentle
from nonkissing.quiver import blossom, koszul_dual
from nonkissing.walks import peak_walk


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


INPUT_COMMANDS = (
    "validate", "blossom", "dual", "walks", "facets", "flipgraph",
    "vectors", "fan", "polytope", "surface", "roundtrip",
)
INVALID_QUIVERS = {
    "degree": {
        "vertices": ["1", "2"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2"},
            {"id": "b", "src": "1", "tgt": "2"},
            {"id": "c", "src": "1", "tgt": "1"},
        ],
        "relations": [],
    },
    "noncomposable": {
        "vertices": ["1", "2", "3"],
        "arrows": [{"id": "a", "src": "1", "tgt": "2"}, {"id": "b", "src": "1", "tgt": "3"}],
        "relations": [["a", "b"]],
    },
    "gentlebranch": {
        "vertices": ["1", "2", "3", "4"],
        "arrows": [
            {"id": "b", "src": "1", "tgt": "2"},
            {"id": "c", "src": "2", "tgt": "3"},
            {"id": "d", "src": "2", "tgt": "4"},
        ],
        "relations": [],
    },
}


@pytest.mark.parametrize("kind", sorted(INVALID_QUIVERS))
@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_validation_error_exit_2(capsys, tmp_path, command, kind):
    path = tmp_path / "bad_quiver.json"
    path.write_text(json.dumps(INVALID_QUIVERS[kind]))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error")


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
    if key.split()[0] in ("facets", "flipgraph", "walks") and "family:" in key
}


@pytest.mark.parametrize("key", sorted(FLIP_GOLDENS))
def test_flip_outputs_match_benchmark_goldens(capsys, key):
    # the benchmark's stdout digests: facet, edge and walk order may not drift
    main(key.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == FLIP_GOLDENS[key]


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind every name of the package bound to original to replacement."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("nonkissing"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def _record_calls(monkeypatch, module, name):
    """The argument tuples of every later call to module.name, in order."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, recording)
    return calls


@pytest.mark.parametrize(
    "command, most", [("validate", 1), ("dual", 1), ("surface", 1), ("roundtrip", 3)]
)
def test_commands_validate_where_the_quiver_enters(monkeypatch, capsys, tmp_path, command, most):
    rng = random.Random(8)
    path = tmp_path / "q.json"
    validations = _record_calls(monkeypatch, quiver_module, "validate_locally_gentle")
    for _ in range(10):
        path.write_text(random_locally_gentle(rng).to_json())
        validations.clear()
        assert main([command, str(path)]) == 0
        assert 1 <= len(validations) <= most
    capsys.readouterr()


def test_blossom_and_koszul_dual_trust_their_input(monkeypatch):
    rng = random.Random(9)
    quivers = [random_locally_gentle(rng) for _ in range(20)]
    validations = _record_calls(monkeypatch, quiver_module, "validate_locally_gentle")
    for q in quivers:
        blossom(q)
        koszul_dual(q)
    assert validations == []


def test_selfcheck_checks_the_curve_dictionary_per_walk(monkeypatch, capsys):
    crossings = _record_calls(monkeypatch, surface_module, "crossing_count")
    kisses = _record_calls(monkeypatch, walks_module, "kiss_count")
    readings = _record_calls(monkeypatch, surface_module, "walk_of_curve")
    code, out = run(capsys, "selfcheck")
    assert code == 0 and json.loads(out) == {"ok": True, "violations": {}}
    assert crossings == []
    assert len(kisses) <= 1060
    assert len(readings) <= 80


def test_selfcheck_reports_a_wrong_curve_reading(monkeypatch, capsys):
    def wrong(bq, curve):
        return peak_walk(bq, bq.base.vertices[0])

    _patch_everywhere(monkeypatch, surface_module.walk_of_curve, wrong)
    code, out = run(capsys, "selfcheck")
    doc = json.loads(out)
    assert code == 2 and doc["ok"] is False
    messages = [m for ms in doc["violations"].values() for m in ms]
    assert any("reads back as another walk" in m for m in messages)
