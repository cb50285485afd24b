"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import importlib
import json
import random
import runpy
import sys
import time
from pathlib import Path

import pytest

from nonkissing import cli as cli_module
from nonkissing import quiver as quiver_module
from nonkissing import surface as surface_module
from nonkissing import walks as walks_module
from nonkissing.cli import build_parser, main
from nonkissing.families import a_path, cycle_quiver, parse_family, random_locally_gentle
from nonkissing.errors import GrowthNotClosed, ParseError
from nonkissing.quiver import blossom, canonical_key, koszul_dual, make_quiver, quiver_from_dict
from nonkissing.walks import peak_walk

from pyrun import run_python


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


# JSON documents of the wrong shape: each is a parse error, not a traceback
MALFORMED_QUIVERS = {
    "endpoint-list": {"vertices": ["1", "2"], "arrows": [{"id": "a", "src": ["1"], "tgt": "2"}]},
    "relation-member-list": {
        "vertices": ["1", "2", "3"],
        "arrows": [{"id": "a", "src": "1", "tgt": "2"}, {"id": "b", "src": "2", "tgt": "3"}],
        "relations": [[["a"], "b"]],
    },
    "vertices-int": {"vertices": 5, "arrows": []},
    "vertices-string": {"vertices": "12", "arrows": []},
    "arrows-object": {"vertices": ["1"], "arrows": {"id": "a", "src": "1", "tgt": "1"}},
    "relations-string": {"vertices": ["1"], "arrows": [], "relations": "ab"},
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_QUIVERS))
def test_malformed_quiver_is_a_parse_error(capsys, tmp_path, kind):
    doc = MALFORMED_QUIVERS[kind]
    with pytest.raises(ParseError):
        quiver_from_dict(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("polytope", "family:apath:4", "--max-facets", "5"), "a closed flip graph"),
        (("fan", "family:doublecycle:2", "--max-facets", "5"), "a closed flip graph"),
        # a closed flip graph whose walk universe has a band
        (("polytope", "family:doublecycle:1"), "the complete walk set"),
        (("polytope", "family:doublecycle:1", "--max-facets", "20"), "the complete walk set"),
    ],
)
def test_geometry_of_a_capped_input_exits_3(capsys, argv, message):
    # the polytope of a capped graph is refused before the walk universe is
    # grown
    start = time.perf_counter()
    code = main(list(argv))
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: {argv[0]} construction needs {message}\n"


def test_polytope_refuses_a_band_at_default_bounds(monkeypatch, capsys):
    # without the band check the flip BFS runs to its default cap of 10,000
    # facets, which takes far longer than this; the stand-in fails at once
    # instead
    def bfs(*args, **kwargs):
        pytest.fail("polytope ran the flip BFS on a band")

    monkeypatch.setattr(cli_module, "enumerate_facets", bfs)
    start = time.perf_counter()
    code = main(["polytope", "family:doublecycle:2"])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: polytope construction needs the complete walk set\n"


def test_a_cut_without_a_band_is_a_bug(monkeypatch, capsys):
    # doublecycle:1 has a band; told otherwise, walk_universe grows it and
    # is cut, which reads as a bug (exit 2), not as a bound (exit 3)
    monkeypatch.setattr(walks_module, "has_band", lambda bq: False)
    monkeypatch.setattr(cli_module, "has_band", lambda bq: False)  # polytope asks first
    bq = blossom(parse_family("family:doublecycle:1"))
    with pytest.raises(GrowthNotClosed, match="^test: walk growth without a band was cut short$"):
        walks_module.walk_universe(bq, "test")
    assert main(["polytope", "family:doublecycle:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: polytope construction: walk growth without a band was cut short\n"


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


OUT_FLAG_RUNS = [
    *([command, "family:apath:2"] for command in INPUT_COMMANDS),
    ["selfcheck"],
    ["facets", "family:doublecycle:2", "--max-facets", "5"],
    ["flipgraph", "family:apath:2", "--format", "dot"],
]


@pytest.mark.parametrize("argv", OUT_FLAG_RUNS, ids=" ".join)
def test_out_flag_writes_file(capsys, tmp_path, argv):
    # --out gets exactly the bytes stdout gets without it, and the same exit code
    code, out = run(capsys, *argv)
    assert code == (3 if "--max-facets" in argv else 0)
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


def test_unwritable_out_is_a_parse_error(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.json")
    assert main(["validate", "family:apath:2", "--out", target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: cannot write {target!r}: ")
    assert captured.err.count("\n") == 1


def test_bad_bounds_exit_1():
    assert main(["facets", "family:apath:2", "--max-facets", "0"]) == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "family:apath:2", "--unroll", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["walks", "family:apath:2", "--max-facets", "5"],
        ["validate", "family:apath:2", "--body-bound", "3"],
        ["polytope", "family:apath:2", "--body-bound", "2"],
        ["surface", "family:cycle:1", "--format", "dot"],
    ],
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these by name, looked up as it does
    tracing = runpy.run_path(str(BENCH / "tracing.py"))  # no bytecode cache
    for layer, names in tracing["TRACED"].items():
        module = importlib.import_module(f"nonkissing.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer, cls, name in tracing["METHODS"]:
        module = importlib.import_module(f"nonkissing.{layer}")
        assert name in vars(getattr(module, cls)), f"{layer}.{cls}.{name}"


def test_benchmark_traced_names_are_reached_by_the_cli(capsys, tmp_path):
    # every function the tracer wraps by name is one these commands call,
    # bar the four below
    tracing = runpy.run_path(str(BENCH / "tracing.py"))  # no bytecode cache
    path = tmp_path / "cycle2.json"
    path.write_text(cycle_quiver(2).to_json())
    commands = (
        (["selfcheck"], 0),
        (["vectors", "family:apath:3"], 0),
        (["polytope", "family:apath:3"], 0),
        (["walks", "family:doublecycle:1", "--body-bound", "6"], 3),
        (["roundtrip", "family:doublecycle:2"], 0),
        (["surface", str(path)], 0),
        (["dual", str(path)], 0),
    )
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        codes = [main(argv) for argv, _ in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [code for _, code in commands]
    called = {span[3] for span in tracer.take()}
    traced = {f"{layer}.{name}" for layer, names in tracing["TRACED"].items() for name in names}
    assert traced - called == {
        "quiver.canonical_key", "walks.kissing", "walks.kn_pair", "surface.crossing_count",
    }


GOLDENS = BENCH / "goldens.json"
# every golden whose command reads no quiver file: the family specs and
# selfcheck; the json: keys are the iso-surface test's below
SPEC_GOLDENS = {
    key: digest
    for key, digest in json.loads(GOLDENS.read_text()).items()
    if "json:" not in key
}


@pytest.mark.parametrize("key", sorted(SPEC_GOLDENS))
def test_flip_outputs_match_benchmark_goldens(capsys, key):
    # the benchmark's stdout digests: facet, edge, walk and vector order may
    # not drift
    main(key.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == SPEC_GOLDENS[key]


def test_iso_surface_outputs_match_benchmark_goldens(capsys, tmp_path):
    # the benchmark's random quivers through validate, dual, surface and
    # roundtrip; prepare writes the quiver files under tmp_path
    workloads = runpy.run_path(str(BENCH / "workloads.py"))  # no bytecode cache
    goldens = json.loads(GOLDENS.read_text())
    wrong = []
    for cmd in workloads["prepare"]("iso-surface", 0, tmp_path):
        code = main(list(cmd.argv))
        out = capsys.readouterr().out
        if code != cmd.expect_exit or hashlib.sha256(out.encode()).hexdigest()[:16] != goldens[cmd.key]:
            wrong.append(cmd.key)
    assert wrong == []


HASH_SEED_COMMANDS = """
import contextlib, hashlib, io
from nonkissing.cli import main

for argv in (
    ["surface", "family:doublecycle:2"],
    ["roundtrip", "family:doublepath:3"],
    ["flipgraph", "family:cycle:2"],
    ["polytope", "family:apath:3"],
    ["facets", "family:doublepath:3", "--max-facets", "40"],
    ["selfcheck"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_stdout_does_not_depend_on_the_hash_seed(monkeypatch):
    outputs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        outputs.append(run_python(HASH_SEED_COMMANDS))
    assert outputs[0] == outputs[1]
    assert outputs[0][::2] == ["0", "0", "0", "0", "3", "0"]  # exit codes


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


def _count_surface_keys(monkeypatch):
    """A one-item list counting later calls of SurfaceModel.canonical_key."""
    count = [0]
    original = surface_module.SurfaceModel.canonical_key

    def counting(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(surface_module.SurfaceModel, "canonical_key", counting)
    return count


ROUNDTRIP_OK = {
    "quiver_roundtrip": "ok",
    "koszul_dual_reading": "ok",
    "koszul_swap": "ok",
    "dual_reconstruction": "ok",
}


def test_roundtrip_computes_at_most_two_surface_keys(monkeypatch, capsys, tmp_path):
    # three of the four checks compare identical labels; only the swap
    # compares keys
    rng = random.Random(12)
    path = tmp_path / "q.json"
    keys = _count_surface_keys(monkeypatch)
    for _ in range(10):
        path.write_text(random_locally_gentle(rng).to_json())
        keys[0] = 0
        code, out = run(capsys, "roundtrip", str(path))
        assert code == 0 and json.loads(out) == ROUNDTRIP_OK
        assert keys[0] <= 2


def _primed(q):
    """q with a prime added to every vertex and arrow id."""
    return make_quiver(
        [v + "'" for v in q.vertices],
        [(a + "'", s + "'", t + "'") for a, s, t in q.arrows],
        [(a + "'", b + "'") for a, b in q.relations],
    )


def test_roundtrip_decides_differing_labels_by_keys(monkeypatch, capsys):
    # a reading that comes back relabeled still passes, on its keys
    spec = "family:doublepath:4"
    reading = cli_module.quiver_from_surface
    monkeypatch.setattr(cli_module, "quiver_from_surface", lambda s: _primed(reading(s)))
    keys = _count_surface_keys(monkeypatch)
    code, out = run(capsys, "roundtrip", spec)
    assert code == 0 and json.loads(out) == ROUNDTRIP_OK
    assert keys[0] > 2


def test_roundtrip_fails_a_reading_of_another_quiver(monkeypatch, capsys):
    spec = "family:apath:3"
    dual = koszul_dual(parse_family(spec))
    assert canonical_key(dual) != canonical_key(parse_family(spec))
    monkeypatch.setattr(cli_module, "quiver_from_surface", lambda s: dual)
    code, out = run(capsys, "roundtrip", spec)
    assert code == 2
    assert json.loads(out) == dict(ROUNDTRIP_OK, quiver_roundtrip="FAIL")


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
    growths = _record_calls(monkeypatch, walks_module, "enumerate_walks")
    code, out = run(capsys, "selfcheck")
    assert code == 0 and json.loads(out) == {"ok": True, "violations": {}}
    assert crossings == []
    assert len(kisses) <= 1060
    assert len(readings) <= 80
    # each blossoming's context enumerates its walk universe once
    assert len(growths) <= 7


def test_selfcheck_reports_a_wrong_curve_reading(monkeypatch, capsys):
    def wrong(bq, curve):
        return peak_walk(bq, bq.base.vertices[0])

    _patch_everywhere(monkeypatch, surface_module.walk_of_curve, wrong)
    code, out = run(capsys, "selfcheck")
    doc = json.loads(out)
    assert code == 2 and doc["ok"] is False
    messages = [m for ms in doc["violations"].values() for m in ms]
    assert any("reads back as another walk" in m for m in messages)
