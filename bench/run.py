"""Benchmark of the nonkissing CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, one thread: the CLI's `main(argv)` is called in
process, command after command in a fixed order (a closed loop), with stdout
captured in memory.  Passes over the workload's commands repeat until
`--seconds` is used up.  Every output is checked (see checks.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones (see
tracing.py).  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The whole
run, set-up samples included, keeps within --seconds, except that a run makes
at least its minimum number of passes and set-up samples.

Timing on a shared host.  The speed of a small shared machine swings with its
neighbours' load, by up to 2x within a minute on a shared 2-vCPU Xeon (2.0 GHz)
virtual machine, with no steal time and CPU time equal to wall time, so
raw seconds of runs made minutes apart do not compare.  A fixed calibration
loop does not track the program's speed, but a copy of the program does: with
--trace 0 every command of a timed pass runs twice, back to back, on the
program and on a frozen copy of it (bench/reference/, the program as it was
when the benchmark was defined), in alternating order.  Each timing metric is
then reported at reference speed: the reference's figure recorded in
workloads.REFERENCE_SPEED times the program/reference ratio measured in the
run.  With t[p] and u[p] the program's and the reference's command seconds in
pass p:

    wall_s    = pass_s    * median_p(sum t[p] / sum u[p])
    cmd_p50_s = cmd_p50_s * median_p,i(t[p][i] / u[p][i])
    setup_s   = setup_s   * median_k(program / reference set-up seconds of pair k)

where the set-up pairs are fresh interpreters run back to back.  cmd_p50_s
takes the median ratio over every command run, not the ratio of the median
commands: the speed of the host changes within a second, and one pair of
runs of the median command is too few to average that out, while the median
of all pairs is steady.  The raw seconds are printed as well.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from tracing import BUCKET_NAMES, ROOT_SPAN, TRACED, Tracer, summarize, write_spans  # noqa: E402

ROOT = workloads.ROOT
SETUP_REPEATS = 3  # set-up pairs per run
MIN_PASSES = 2  # timed passes per run
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
SPANS_DIR = ROOT / ".bench_out"
# Commands whose output counts toward a throughput: (kind, count read from the JSON).
EMITTED = {
    "facets": ("facets", lambda doc: doc["facets"]),
    "flipgraph": ("facets", lambda doc: len(doc["facets"])),
    "walks": ("walks", lambda doc: doc["count"]),
}


def median(values):
    return statistics.median(values) if values else 0.0


def finite(values):
    return [x for x in values if not math.isnan(x)]


def run_command(main, argv):
    """Call a CLI `main` in process; return (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(list(argv))
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


class SetupTimer:
    """Seconds from a fresh interpreter to validated inputs, in pairs.

    A sample runs `workloads.py` in a new interpreter with the program and
    with the reference, back to back, in alternating order.  Samples are taken
    between passes, so that they spread over the run.  One untimed pair comes
    first, so byte-compiled caches are in place as they are for an installed
    package.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.argv = {
            program: [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed),
                      "--workdir", str(workdir / program), "--program", program]
            for program in workloads.PROGRAMS
        }
        self.pairs: list[tuple[float, float]] = []  # (program, reference) seconds
        self.seconds: list[float] = []  # wall time of each sample
        self._pair(0)

    def _spawn(self, program: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv[program], cwd=ROOT, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of the {program} failed: {proc.stderr.strip()}")
        return dt

    def _pair(self, k: int) -> tuple[float, float]:
        order = ("program", "reference") if k % 2 == 0 else ("reference", "program")
        dt = {program: self._spawn(program) for program in order}
        return dt["program"], dt["reference"]

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.pairs.append(self._pair(len(self.pairs) + 1))
        self.seconds.append(time.perf_counter() - t0)


def run_reference(main, cmd) -> float:
    """Run `cmd` on the reference; return its seconds."""
    code, _, dt = run_command(main, cmd.argv)
    if code != cmd.expect_exit:
        raise RuntimeError(f"the reference exited {code}, not {cmd.expect_exit}, on {cmd.key}")
    return dt


class Pass:
    """Timings and counts of one pass over the workload's commands.

    With a `reference` main, each command also runs on the reference, right
    before or right after the program: before on odd command indices of a pass
    with even `order`, and the other way round on odd `order`.
    """

    def __init__(self, cmds, checker: Checker, main, tracer: Tracer | None = None, reference=None, order: int = 0):
        gc.collect()  # garbage of earlier passes and checks is not collected on this pass's clock
        run = functools.partial(run_command, main)
        outcomes = []
        self.ref_latencies = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(cmds):
            reference_first = reference is not None and (i + order) % 2 == 1
            if reference_first:
                self.ref_latencies.append(run_reference(reference, cmd))
            try:
                if tracer is None:
                    code, out, dt = run(cmd.argv)
                else:
                    code, out, dt = tracer.call_root(i, run, cmd.argv)
                outcomes.append((code, out, dt, None))
            except Exception:  # a crash is a failed command, not a crashed benchmark
                outcomes.append((None, "", math.nan, traceback.format_exc(limit=3)))
            if reference is not None and not reference_first:
                self.ref_latencies.append(run_reference(reference, cmd))
        self.wall = time.perf_counter() - t0
        self.latencies = [o[2] for o in outcomes]  # NaN where the command raised
        self.spans = tracer.take() if tracer else None
        # (kind, count, command indices) of the facets, walks and quivers finished
        self.work = []
        random_ok: dict[str, list] = {}
        for i, (cmd, (code, out, dt, error)) in enumerate(zip(cmds, outcomes)):
            ok = checker.check(cmd, code, out, error)
            if cmd.random_quiver:
                r = random_ok.setdefault(cmd.argv[1], [True, []])
                r[0] = r[0] and ok
                r[1].append(i)
            elif ok and cmd.argv[0] in EMITTED:
                kind, count = EMITTED[cmd.argv[0]]
                self.work.append((kind, count(json.loads(out)), [i]))
        self.work += [("quivers", 1, indices) for ok, indices in random_ok.values() if ok]


def run_traced(cmds, checker: Checker, main, deadline: float):
    """One warm-up pass, then untraced and traced passes in turn, at least one
    of each, while the next one ends before `deadline`.  The warm-up pass is
    checked but not timed."""
    Pass(cmds, checker, main)
    tracer = Tracer()
    plain, traced = [], []
    while True:
        trace_next = len(traced) < len(plain)
        if plain and traced:
            expect = median([p.wall for p in (traced if trace_next else plain)])
            if time.perf_counter() + expect > deadline:
                break
        if trace_next:
            tracer.install()
            try:
                traced.append(Pass(cmds, checker, main, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(Pass(cmds, checker, main))
    return plain, traced


def run_paired(cmds, checker: Checker, main, reference, setup: SetupTimer, deadline: float):
    """Timed passes on the program and the reference, with a set-up pair
    before each until SETUP_REPEATS are taken.  Passes go on while the next
    one, and the set-up pairs still owed, end before `deadline`; a run makes at
    least MIN_PASSES passes and SETUP_REPEATS set-up pairs."""
    passes = []
    while True:
        owed = max(SETUP_REPEATS - len(setup.pairs), 0)
        if len(passes) >= MIN_PASSES:
            expect = median([p.wall for p in passes]) + owed * median(setup.seconds)
            if time.perf_counter() + expect > deadline:
                break
        if owed:
            setup.sample()
        passes.append(Pass(cmds, checker, main, reference=reference, order=len(passes)))
    while len(setup.pairs) < SETUP_REPEATS:
        setup.sample()
    return passes


def rate(passes, kind):
    """Median over passes of the `kind` finished per second of the commands that finished them."""
    rates = []
    for p in passes:
        n = sum(count for k, count, _ in p.work if k == kind)
        dt = sum(p.latencies[i] for k, _, indices in p.work if k == kind for i in indices)
        if dt > 0:
            rates.append(n / dt)
    return median(rates) if rates else None


def end_to_end(passes, setup: SetupTimer, rss_mb: float, speed: dict):
    # program and reference seconds of the commands that ran on both
    pairs = [[(t, u) for t, u in zip(p.latencies, p.ref_latencies) if not math.isnan(t)] for p in passes]
    wall = [sum(t for t, _ in ps) / sum(u for _, u in ps) for ps in pairs]
    per_command = [t / u for ps in pairs for t, u in ps]
    setup_ratio = [a / b for a, b in setup.pairs]
    metrics = {
        "wall_s": (speed["pass_s"] * median(wall), "s"),
        "cmd_p50_s": (speed["cmd_p50_s"] * median(per_command), "s"),
        "setup_s": (speed["setup_s"] * median(setup_ratio), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }

    def ratios(values):
        return " ".join(f"{x:.4f}" for x in values)

    notes = {
        "wall_s": f"{speed['pass_s']} s x median program/reference ratio of {len(passes)} passes: {ratios(wall)}",
        "cmd_p50_s": f"{speed['cmd_p50_s']} s x median program/reference ratio of {len(per_command)} command runs: "
                     f"{median(per_command):.4f} (quartiles {ratios(statistics.quantiles(per_command, n=4)[::2])})",
        "setup_s": f"{speed['setup_s']} s x median program/reference ratio of {len(setup_ratio)} "
                   f"fresh-interpreter pairs: {ratios(setup_ratio)}",
        "peak_rss_mb": "ru_maxrss after set-up and one pass, before the reference is imported",
    }
    # Printed but not gated: raw seconds as measured, at the host's speed of the moment.
    lat = finite(x for p in passes for x in p.latencies)
    extra = {}
    if len(lat) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat, n=10)[8]
        extra["cmd_p90_s"] = (p90, "s", f"raw, n={len(lat)}, {sum(x > p90 for x in lat)} beyond")
    else:
        extra["cmd_p90_s"] = (None, "s", f"n/a: n={len(lat)}, fewer than {P90_MIN_SAMPLES} samples")
    for kind in ("facets", "walks", "quivers"):
        r = rate(passes, kind)
        extra[f"{kind}_per_s"] = (r, "1/s", f"raw, median of {len(passes)} passes" if r is not None else "n/a on this workload")
    walls = [sum(t for t, _ in ps) for ps in pairs]
    extra["raw_wall_s"] = (median(walls), "s", f"raw, program only: {ratios(walls)}")
    extra["raw_cmd_p50_s"] = (statistics.median(lat), "s", f"raw, n={len(lat)}")
    extra["raw_setup_s"] = (median([a for a, _ in setup.pairs]), "s", f"raw, median of {len(setup.pairs)}")
    host = [sum(u for _, u in ps) / speed["pass_s"] for ps in pairs]
    extra["host_slowdown"] = (median(host), "ratio", f"reference pass seconds / pass_s: {ratios(host)}")
    return metrics, notes, extra


def per_layer(plain, traced):
    sums = [summarize(p.spans) for p in traced]
    first = sums[0]
    metrics = {}

    def fn_median(name, field):
        return median([s["functions"].get(name, {}).get(field, 0.0) for s in sums])

    def calls(name):
        return first["functions"].get(name, {}).get("calls", 0)

    for layer in TRACED:
        layer_s = [sum((v["self_s"] for k, v in s["functions"].items() if k.startswith(layer + ".")), 0.0) for s in sums]
        metrics[f"{layer}.self_s"] = (median(layer_s), "s")
    metrics["cli.self_s"] = (fn_median(ROOT_SPAN, "self_s"), "s")
    metrics["cli.out_bytes"] = (first["out_bytes"], "bytes")

    for name in (
        "walks.kiss_count", "walks.enumerate_walks", "walks.canonicalize", "walks.total_kissing_number",
        "facets.flip", "facets.distinguished_data", "facets.enumerate_facets",
        "facets.verify_thinness", "facets.brute_force_facets",
        "geometry.build_associahedron", "geometry.build_fan", "geometry.facet_matrices",
        "geometry.d_vector", "geometry.dual_basis_check",
        "quiver.canonical_key", "quiver.blossom", "quiver.koszul_dual",
        "quiver.validate_locally_gentle", "quiver.quiver_from_json",
        "surface.surface_from_quiver", "surface.SurfaceModel.canonical_key", "surface.quiver_from_surface",
        "surface.strip_dual", "surface.dual_dissection", "surface.surfaces_isomorphic",
        "surface.surface_invariants", "surface.crossing_count",
        "families.parse_family",
    ):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (fn_median(name, "self_s"), "s")

    n_kiss = calls("walks.kiss_count")
    metrics["walks.kiss_count.hit_ratio"] = (first["kiss_hits"] / n_kiss if n_kiss else 0.0, "ratio")
    metrics["walks.kiss_count.letters_in"] = (first["kiss_letters"], "count")
    for b in BUCKET_NAMES:
        per_call = [s["kiss_buckets"][b][1] / s["kiss_buckets"][b][0] for s in sums if b in s["kiss_buckets"]]
        metrics[f"walks.kiss_count.s_per_call.{b}"] = (median(per_call), "s")
    metrics["walks.enumerate_walks.walks_out"] = (first["walks_out"], "count")
    n_flip = calls("facets.flip")
    metrics["facets.distinguished_data.per_flip"] = (calls("facets.distinguished_data") / n_flip if n_flip else 0.0, "ratio")
    metrics["facets.enumerate_facets.facets_out"] = (first["facets_out"], "count")
    for cap in (5, 10, 15):
        per_facet = [s["caps"][cap][0] / s["caps"][cap][1] for s in sums if cap in s["caps"]]
        metrics[f"facets.enumerate_facets.s_per_facet.cap{cap}"] = (median(per_facet), "s")

    t_wall = median([p.wall for p in traced])
    metrics["trace.wall_s"] = (t_wall, "s")
    metrics["trace.overhead_s"] = (t_wall - median([p.wall for p in plain]), "s")
    metrics["trace.harness_s"] = (median([p.wall - s["root_s"] for p, s in zip(traced, sums)]), "s")
    return metrics, sums


def git_commit() -> str:
    """HEAD of the checkout, read from .git; the benchmark checkout has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(where: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(where.rglob("*.py")):
        h.update(path.relative_to(where).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, cmds, passes, n_samples) -> dict:
    caps = sorted({" ".join(c.argv[2:]) for c in cmds if len(c.argv) > 2})
    ref_dir, ref_package = workloads.PROGRAMS["reference"]
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(workloads.SRC / "nonkissing"),
        "reference": f"{(ref_dir / ref_package).relative_to(ROOT)} (sha256 {source_digest(ref_dir / ref_package)})",
        "reference_speed": workloads.REFERENCE_SPEED[args.workload],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "caps": caps or ["CLI defaults"],
        "commands_per_pass": len(cmds),
        "passes": passes,
        "latency_samples": n_samples,
        "load": "closed loop, 1 client, 1 process, 1 thread",
        "not_covered": workloads.NOT_COVERED,
    }


def print_trace_report(sums, cmds, wall) -> None:
    """Breakdowns of the first traced pass, whose wall time is `wall`."""
    s = sums[0]
    print(f"# self time by layer in the first traced pass ({wall:.4f} s; harness is time outside the CLI)")
    layer_self = defaultdict(float)
    for name, v in s["functions"].items():
        layer_self[name.split(".")[0] if name != ROOT_SPAN else "cli"] += v["self_s"]
    for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:10s} {t:9.4f} s  {100 * t / wall:5.1f}%")
    print(f"#   {'harness':10s} {wall - s['root_s']:9.4f} s  {100 * (wall - s['root_s']) / wall:5.1f}%")
    print("# top functions by self time")
    top = sorted(s["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:12]
    for name, v in top:
        print(f"#   {name:40s} calls {v['calls']:8d}  self {v['self_s']:9.4f} s  incl {v['incl_s']:9.4f} s")
    print("# dominant self time per command group")
    groups: dict[str, dict] = {}
    for req, per in s["per_request"].items():
        g = groups.setdefault(cmds[req].group, {})
        for name, t in per.items():
            g[name] = g.get(name, 0.0) + t
    for group, per in groups.items():
        total = sum(per.values())
        best = sorted(per.items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{n} {100 * t / total:.0f}%" for n, t in best)
        print(f"#   {group:34s} {total:8.4f} s  {shares}")
    if s["kiss_buckets"]:
        print("# walks.kiss_count self time per call by letters_in (body + tail letters of both walks)")
        for b in BUCKET_NAMES:
            if b in s["kiss_buckets"]:
                n, t = s["kiss_buckets"][b]
                print(f"#   {b:14s} calls {n:8d}  {1e6 * t / n:10.1f} us/call")
    if s["caps"]:
        print("# facets.enumerate_facets inclusive time per facet by --max-facets")
        for cap, (t, n) in sorted(s["caps"].items(), key=lambda kv: (kv[0] is None, kv[0] or 0)):
            shown = "default" if cap is None else str(cap)
            print(f"#   max_facets {shown:8s} facets {n:5d}  {t / n:.5f} s/facet")


def main() -> int:
    parser = argparse.ArgumentParser(description="nonkissing CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (workloads.SRC / "nonkissing" / "cli.py").is_file():
        print(f"error: no program source under {workloads.SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + args.seconds
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = None if args.trace else SetupTimer(args.workload, args.seed, workdir / "setup")
        main_fn = workloads.import_program().main
        cmds = workloads.prepare(args.workload, args.seed, workdir)
        checker = Checker()
        if args.trace:
            plain, traced = run_traced(cmds, checker, main_fn, deadline)
            timed = plain + traced
            passes = {"untraced": len(plain), "traced": len(traced)}
        else:
            Pass(cmds, checker, main_fn)  # warm-up: checked, not timed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            reference = workloads.import_program("reference").main
            timed = run_paired(cmds, checker, main_fn, reference, setup, deadline)
            passes = {"paired": len(timed), "setup_pairs": len(setup.pairs)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    n_samples = sum(len(finite(p.latencies)) for p in timed)
    prov = provenance(args, cmds, passes, n_samples)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for problem in checker.problems:
        print(f"# FAILED {problem}")
    print(f"# ops_failed_ratio {checker.failed}/{checker.attempted} = {checker.failed / checker.attempted:.4f} ratio")
    if args.trace:
        metrics, sums = per_layer(plain, traced)
        print_trace_report(sums, cmds, traced[0].wall)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, traced[-1].spans)
        print(f"# spans of the last traced pass written to {spans_path.relative_to(ROOT)}")
        notes = {}
    else:
        metrics, notes, extra = end_to_end(timed, setup, rss_mb, workloads.REFERENCE_SPEED[args.workload])
        for name, (value, unit, note) in extra.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"# {args.workload} {name:16s} {shown:>12s} {unit:6s} ({note})")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name:40s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
