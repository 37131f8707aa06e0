"""Span tracing of the fkc layers from outside the package.

`Tracer.install()` rebinds, in this process only, the public functions of
fkc.cli, fkc.complexes, fkc.gf2, fkc.invariants and fkc.region (and every
other fkc module attribute bound to the same function object, so calls made
through `from .gf2 import rank` are caught too).  `uninstall()` restores
the originals.  No file under src/ changes.

A span is [id, op, name, parent, start, end, busy, extra]: `busy` is the
time spent inside the call (end - start, except for the coset generator,
whose busy time excludes the consumer's work between vectors), `extra`
holds counts such as a minimalize call's inputs.  Spans stay in memory and
are written out once by `dump`.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable

PKG_MODULES = ("fkc", "fkc.cli", "fkc.complexes", "fkc.gf2", "fkc.invariants", "fkc.region", "fkc.catalog")

# (module, attribute path) -> span name; the layers are the package modules
SPANNED = {
    ("fkc.cli", "main"): "cli.main",
    ("fkc.complexes", "parse"): "complexes.parse",
    ("fkc.complexes", "serialize"): "complexes.serialize",
    ("fkc.complexes", "tensor"): "complexes.tensor",
    ("fkc.complexes", "dual"): "complexes.dual",
    ("fkc.complexes", "direct_sum"): "complexes.direct_sum",
    ("fkc.complexes", "reverse"): "complexes.reverse",
    ("fkc.complexes", "validate"): "complexes.validate",
    ("fkc.complexes", "is_stabilizer"): "complexes.is_stabilizer",
    ("fkc.complexes", "FormalComplex.homology_dim"): "complexes.homology_dim",
    ("fkc.complexes", "Subcomplex.homology_dim"): "complexes.homology_dim",
    ("fkc.gf2", "rank"): "gf2.rank",
    ("fkc.gf2", "kernel_basis"): "gf2.kernel_basis",
    ("fkc.gf2", "solve"): "gf2.solve",
    ("fkc.gf2", "BitMatrix.restrict_columns"): "gf2.restrict_columns",
    ("fkc.invariants", "nu_plus"): "invariants.nu_plus",
    ("fkc.invariants", "tau"): "invariants.tau",
    ("fkc.invariants", "v_k"): "invariants.v_k",
    ("fkc.invariants", "upsilon_at"): "invariants.upsilon_at",
    ("fkc.invariants", "contains_hom_generator"): "invariants.contains_hom_generator",
    ("fkc.invariants", "d_surgery_delta"): "invariants.d_surgery_delta",
    ("fkc.invariants", "compare"): "invariants.compare",
    ("fkc.invariants", "g0"): "invariants.g0",
    ("fkc.invariants", "level0_realizers"): "invariants.level0_realizers",
    ("fkc.invariants", "g_next"): "invariants.g_next",
    ("fkc.invariants", "g_tower"): "invariants.g_tower",
    ("fkc.invariants", "hom_generators"): "invariants.hom_generators",
    ("fkc.invariants", "upsilon"): "invariants.upsilon",
    ("fkc.invariants", "upsilon2"): "invariants.upsilon2",
    ("fkc.region", "minimalize"): "region.minimalize",
    ("fkc.region", "closure"): "region.closure",
}
GENERATORS = {("fkc.gf2", "enumerate_coset"): "gf2.enumerate_coset"}
# hot inner calls: counted, not spanned, to keep the traced run close to the untraced one
COUNTED = {
    ("fkc.gf2", "Span.contains"): "gf2.span_contains",
    ("fkc.region", "subset"): "region.subset",
}
PROBE_QUERIES = {"invariants.nu_plus", "invariants.tau", "invariants.v_k",
                 "invariants.upsilon_at", "invariants.contains_hom_generator"}
ID, OP, NAME, PARENT, START, END, BUSY, EXTRA = range(8)


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ops: list[dict] = []
        self.active = False
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, label: str, sizes: dict) -> None:
        self.ops.append({"op": len(self.ops), "label": label, "sizes": sizes})
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._stack.clear()

    def _open(self, name: str) -> list:
        span = [len(self.spans), len(self.ops) - 1, name,
                self._stack[-1][ID] if self._stack else None,
                time.perf_counter(), 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START]
        self._stack.pop()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counted_result = name in ("region.minimalize", "invariants.g0")

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "region.minimalize":
                args = (list(args[0]),) + args[1:]
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counted_result:
                span[EXTRA] = {"outputs": len(result)}
                if name == "region.minimalize":
                    span[EXTRA]["inputs"] = len(args[0])
            return result

        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(it, span):
            vectors = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        v = next(it)
                    finally:
                        span[BUSY] += time.perf_counter() - t0
                        span[END] = time.perf_counter()
                    vectors += 1
                    yield v
            except StopIteration:
                return
            finally:
                span[EXTRA] = {"vectors": vectors}

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            now = time.perf_counter()
            span = [len(tracer.spans), len(tracer.ops) - 1, name,
                    tracer._stack[-1][ID] if tracer._stack else None, now, now, 0.0, None]
            tracer.spans.append(span)
            return traced(fn(*args, **kwargs), span)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PKG_MODULES]
        by_module = {m.__name__: m for m in modules}
        replacements = {}
        for table, make in ((SPANNED, self._spanned), (GENERATORS, self._generator),
                            (COUNTED, self._counted)):
            for (mod, path), name in table.items():
                try:
                    owner, attr = _resolve(by_module[mod], path)
                    original = owner.__dict__[attr]
                except (AttributeError, KeyError):
                    continue  # the layer no longer has this function
                wrapped = make(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                replacements[id(original)] = (original, wrapped)
        # rebind aliases such as `from .gf2 import rank` in other modules
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((m, attr, value))
                    setattr(m, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus counts and waste ratios."""
        child_busy = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child_busy[s[PARENT]] += s[BUSY]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[NAME] + ".calls"] += 1
            out[s[NAME] + ".self_s"] += s[BUSY] - child_busy[s[ID]]
        for name, n in self.counts.items():
            out[name + ".calls"] += n

        def nearest(span, names):
            p = span[PARENT]
            while p is not None:
                if self.spans[p][NAME] in names:
                    return self.spans[p]
                p = self.spans[p][PARENT]
            return None

        probe_kernels = g0_vectors = g0_regions = mz_in = mz_out = 0
        for s in self.spans:
            extra = s[EXTRA] or {}
            if s[NAME] == "gf2.kernel_basis" and nearest(s, PROBE_QUERIES):
                probe_kernels += 1
            elif s[NAME] == "gf2.enumerate_coset":
                out["gf2.enumerate_coset.vectors"] += extra.get("vectors", 0)
                if nearest(s, {"invariants.g0"}):
                    g0_vectors += extra.get("vectors", 0)
            elif s[NAME] == "invariants.g0":
                g0_regions += extra.get("outputs", 0)
            elif s[NAME] == "region.minimalize":
                mz_in += extra.get("inputs", 0)
                mz_out += extra.get("outputs", 0)
        queries = sum(1 for s in self.spans if s[NAME] in PROBE_QUERIES)
        out["invariants.probe_queries"] = queries
        out["invariants.kernel_basis_per_query"] = probe_kernels / queries if queries else 0.0
        out["invariants.g0.vectors"] = g0_vectors
        out["invariants.g0.regions_per_vector"] = g0_regions / g0_vectors if g0_vectors else 0.0
        out["region.minimalize.inputs"] = mz_in
        out["region.minimalize.kept_ratio"] = mz_out / mz_in if mz_in else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"ops": self.ops,
                       "span_fields": ["id", "op", "name", "parent", "start", "end", "busy", "extra"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, f, separators=(",", ":"))
