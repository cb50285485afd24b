"""Spans around the program's public functions, recorded from outside it.

`Tracer.install()` replaces each traced function by a wrapper in every
`nonkissing` module namespace that binds it (`facets`, `geometry`, `surface`
and `cli` import walks and facets functions by name), and wraps
`SurfaceModel.canonical_key` on the class; `uninstall()` puts the originals
back.  Spans stay in memory as tuples and are summarised, and written out, at
the end of the run.  A span's self time is its duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict

# Functions wrapped per layer (module under src/nonkissing/).  `errors` only
# defines exception types.  Entry points beyond the reported metrics are wrapped
# too, so their time is not charged to a caller's self time.  Small helpers
# called millions of times (letter and vertex lookups) are left unwrapped:
# their cost lands in the caller's self time.
TRACED = {
    "quiver": ("canonical_key", "is_isomorphic", "blossom", "koszul_dual",
               "validate_locally_gentle", "quiver_from_json"),
    "walks": ("kiss_count", "kissing", "kn_pair", "enumerate_walks", "canonicalize",
              "total_kissing_number"),
    "facets": ("flip", "distinguished_data", "enumerate_facets", "brute_force_facets",
               "verify_purity", "verify_thinness", "verify_distinguished_census",
               "walks_through_cycles_check"),
    "geometry": ("build_associahedron", "build_fan", "facet_matrices", "d_vector",
                 "dual_basis_check", "sign_coherence_report"),
    "surface": ("surface_from_quiver", "quiver_from_surface", "swap_dissections", "strip_dual",
                "dual_dissection", "surfaces_isomorphic", "surface_invariants", "surface_dump",
                "curve_of_walk", "crossing_count"),
    "families": ("parse_family",),
}
METHODS = (("surface", "SurfaceModel", "canonical_key"),)
ROOT_SPAN = "cli"

# kiss_count latency per call is grouped by letters_in, the body and tail
# letters of both Walk arguments: buckets are [0, 8), [8, 16), [16, 32), [32, inf).
LETTER_BUCKETS = (8, 16, 32)


def letters_of(w) -> int:
    return len(w.ltail) + len(w.body) + len(w.rtail)


def _bucket(letters: int) -> str:
    lo = 0
    for hi in LETTER_BUCKETS:
        if letters < hi:
            return f"letters{lo}to{hi}"
        lo = hi
    return f"letters{lo}up"


BUCKET_NAMES = tuple(_bucket(b - 1) for b in LETTER_BUCKETS) + (_bucket(LETTER_BUCKETS[-1]),)


# Per-call facts read from arguments and results.  The wrapper keeps only
# references to them; `take()` computes the facts after the pass, so this work
# lands in no span.
INFO = {
    "walks.kiss_count": lambda a, kw, r: (letters_of(a[1]) + letters_of(a[2]), r > 0),
    "walks.enumerate_walks": lambda a, kw, r: len(r[0]),
    "facets.enumerate_facets": lambda a, kw, r: (len(r.facets), kw.get("max_facets")),
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (span id, parent id, request id, name, t0, t1, info)
        self.stack: list[int] = []
        self.request = -1
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self.stack, self._ids, time.perf_counter
        info = INFO.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                raw = (args, kwargs, result) if info is not None and result is not None else None
                spans.append((sid, parent, tracer.request, name, t0, t1, raw))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "nonkissing" or n.startswith("nonkissing.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"nonkissing.{layer}"]
            for fname in names:
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"nonkissing.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def call_root(self, request: int, run, argv):
        """Run one CLI command as the root span of request `request`."""
        self.request = request
        sid = next(self._ids)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            code, out, dt = run(argv)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
        self.spans.append((sid, None, request, ROOT_SPAN, t0, t1, len(out.encode())))
        return code, out, dt

    def take(self) -> list[tuple]:
        """The spans recorded so far, with their facts; the tracer starts over empty."""
        spans = [
            span[:6] + (INFO[span[3]](*span[6]),) if span[6] is not None and span[3] in INFO else span
            for span in self.spans
        ]
        self.spans.clear()
        return spans


def summarize(spans: list[tuple]) -> dict:
    """Per-function calls, self and inclusive time, and facts, for one pass."""
    child = defaultdict(float)
    for sid, parent, _req, _name, t0, t1, _info in spans:
        if parent is not None:
            child[parent] += t1 - t0
    fn = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    per_request = defaultdict(lambda: defaultdict(float))
    kiss = defaultdict(lambda: [0, 0.0])
    caps = defaultdict(lambda: [0.0, 0])
    hits = letters = walks_out = facets_out = out_bytes = 0
    root_s = 0.0
    for sid, parent, req, name, t0, t1, info in spans:
        dur = t1 - t0
        self_s = dur - child[sid]
        s = fn[name]
        s["calls"] += 1
        s["self_s"] += self_s
        s["incl_s"] += dur
        per_request[req][name] += self_s
        if name == ROOT_SPAN:
            root_s += dur
            out_bytes += info
        elif info is None:
            continue
        elif name == "walks.kiss_count":
            letters += info[0]
            hits += info[1]
            k = kiss[_bucket(info[0])]
            k[0] += 1
            k[1] += self_s
        elif name == "walks.enumerate_walks":
            walks_out += info
        elif name == "facets.enumerate_facets":
            facets_out += info[0]
            c = caps[info[1]]
            c[0] += dur
            c[1] += info[0]
    return {
        "functions": dict(fn),
        "per_request": per_request,
        "kiss_buckets": dict(kiss),
        "caps": dict(caps),
        "kiss_hits": hits,
        "kiss_letters": letters,
        "walks_out": walks_out,
        "facets_out": facets_out,
        "out_bytes": out_bytes,
        "root_s": root_s,
    }


def write_spans(path, spans: list[tuple]) -> None:
    """One JSON array per line: span id, parent id, request id, name, t0, t1, info."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
