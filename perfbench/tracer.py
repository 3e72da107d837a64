"""Layer spans and counters installed from outside the program.

Spans are recorded around calls into each module's public functions: name,
start, end, parent span and operation id, kept in memory and written out when
the run ends.  Span clocks read the process's CPU time: the traced passes run
side by side on a shared host, and CPU time does not count the time a pass
waits for a core.  A wrapper is installed in *every* namespace that binds the
wrapped function (``homotopy`` imports ``tensor`` and ``solve_morphisms`` by
name, so patching ``bimodcalc`` alone would miss those calls); methods are
patched on their class.

``QSqrt2`` arithmetic is counted in a separate pass with its own wrappers:
about 10^7 calls per certify run would distort span self times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path).  The span name is the metric prefix.
SPAN_TARGETS = (
    ("linalg.kernel_basis", "braidcert.linalg", "kernel_basis"),
    ("linalg.solve_affine", "braidcert.linalg", "solve_affine"),
    ("bimodcalc.solve_morphisms", "braidcert.bimodcalc", "solve_morphisms"),
    ("bimodcalc.tensor", "braidcert.bimodcalc", "tensor"),
    ("bimodcalc.mat_mul", "braidcert.bimodcalc", "mat_mul"),
    ("bimodcalc.Morphism.graded_inverse", "braidcert.bimodcalc", "Morphism.graded_inverse"),
    ("homotopy.tensor_complex", "braidcert.homotopy", "tensor_complex"),
    ("homotopy.F_word", "braidcert.homotopy", "F_word"),
    ("homotopy.chain_map_space", "braidcert.homotopy", "chain_map_space"),
    ("homotopy.find_chain_iso", "braidcert.homotopy", "find_chain_iso"),
    ("homotopy.find_homotopy_equiv", "braidcert.homotopy", "find_homotopy_equiv"),
    ("homotopy.homotopy_failures", "braidcert.homotopy", "homotopy_failures"),
    ("homotopy.chain_iso_failures", "braidcert.homotopy", "chain_iso_failures"),
    ("homotopy.verify_certificate_dict", "braidcert.homotopy", "verify_certificate_dict"),
    ("polyring.parse_poly", "braidcert.polyring", "parse_poly"),
    ("polyring.format_poly", "braidcert.polyring", "format_poly"),
    ("words.invariant", "braidcert.words", "invariant"),
    ("freegroup.FreeAutomorphism.compose", "braidcert.freegroup", "FreeAutomorphism.compose"),
    ("cli.main", "braidcert.cli", "main"),
)

# QSqrt2 method -> counter; reflected operators count with their operator.
COUNT_TARGETS = (
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__add__", "add"),
    ("__radd__", "add"),
    ("__sub__", "sub"),
    ("__rsub__", "sub"),
    ("inverse", "inverse"),
)


def _rebind(original, replacement) -> int:
    """Point every braidcert module attribute bound to ``original`` at ``replacement``."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "braidcert" or name.startswith("braidcert.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def _install(module_name: str, path: str, make_wrapper) -> None:
    module = sys.modules[module_name]
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, make_wrapper(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    if not _rebind(original, make_wrapper(original)):
        raise RuntimeError(f"{module_name}.{attr} is bound nowhere")


# -- per-call statistics, taken after the span has closed ---------------------------


def _system_shape(rows, ncols=None):
    nnz = sum(len(r) for r in rows)
    if ncols is None:
        ncols = 1 + max((max(r) for r in rows if r), default=-1)
    return len(rows), ncols, nnz


def _kernel_stats(args, result):
    nrows, ncols, nnz = _system_shape(args[0], args[1])
    return {"rows": nrows, "cols": ncols, "nnz": nnz, "kernel_dim": len(result)}


def _affine_stats(args, result):
    nrows, ncols, nnz = _system_shape(args[0])
    return {"rows": nrows, "cols": ncols, "nnz": nnz, "inconsistent": result is None}


def _pane_stats(args, result):
    m, target = args[0], args[1]
    return {"pane_requests": len(m.block_spans) * len(target.block_spans)}


def _none_stats(args, result):
    return {"none": result is None}


def _rank_stats(args, result):
    return {"complex_rank": sum(m.rank for m in result.objects.values())}


def _image_stats(args, result):
    return {"image_letters": sum(len(img) for img in result.images.values())}


STAT_HOOKS = {
    "linalg.kernel_basis": _kernel_stats,
    "linalg.solve_affine": _affine_stats,
    "bimodcalc.solve_morphisms": _pane_stats,
    "bimodcalc.Morphism.graded_inverse": _none_stats,
    "homotopy.find_homotopy_equiv": _none_stats,
    "homotopy.F_word": _rank_stats,
    "freegroup.FreeAutomorphism.compose": _image_stats,
}


class SpanTracer:
    """In-memory span recorder; ``enabled`` is cleared around benchmark checks."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stats: dict = {}  # span index -> per-call statistics
        self.stack: list = []
        self.op = -1
        self.enabled = True

    def install(self) -> None:
        for name, module_name, path in SPAN_TARGETS:
            _install(module_name, path, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stats, stack = self.spans, self.stats, self.stack
        hook = STAT_HOOKS.get(name)
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                stats[idx] = hook(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times derived from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(float)
        kb = "linalg.kernel_basis"
        largest = (0, 0)
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            st = self.stats.get(i)
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == kb:
                out[f"{kb}.max_call_s"] = max(out[f"{kb}.max_call_s"], end - start)
                out[f"{kb}.rows"] += st["rows"]
                out[f"{kb}.rows_x_cols"] += st["rows"] * st["cols"]
                out[f"{kb}.nnz"] += st["nnz"]
                out[f"{kb}.kernel_dim"] += st["kernel_dim"]
                if st["rows"] * st["cols"] > largest[0] * largest[1]:
                    largest = (st["rows"], st["cols"])
                if parent_name == "bimodcalc.solve_morphisms":
                    out["bimodcalc.solve_morphisms.pane_solves"] += 1
            elif name == "linalg.solve_affine":
                out[f"{name}.rows_x_cols"] += st["rows"] * st["cols"]
                out[f"{name}.inconsistent"] += st["inconsistent"]
                if parent_name == "homotopy.find_homotopy_equiv":
                    out["homotopy.find_homotopy_equiv.candidates_tried"] += 1
            elif name == "bimodcalc.solve_morphisms":
                out[f"{name}.pane_requests"] += st["pane_requests"]
            elif name == "bimodcalc.Morphism.graded_inverse":
                out[f"{name}.none"] += st["none"]
            elif name == "homotopy.find_homotopy_equiv":
                out[f"{name}.found"] += not st["none"]
            elif name == "homotopy.F_word":
                out[f"{name}.complex_rank"] += st["complex_rank"]
            elif name == "freegroup.FreeAutomorphism.compose":
                out["freegroup.image_letters"] += st["image_letters"]
        out[f"{kb}.largest_rows"], out[f"{kb}.largest_cols"] = largest
        sm = "bimodcalc.solve_morphisms"
        if out[f"{sm}.pane_requests"]:
            out[f"{sm}.pane_hit_ratio"] = 1 - out[f"{sm}.pane_solves"] / out[f"{sm}.pane_requests"]
        fh = "homotopy.find_homotopy_equiv"
        if out[f"{fh}.candidates_tried"]:
            out[f"{fh}.hit_ratio"] = out[f"{fh}.found"] / out[f"{fh}.candidates_tried"]
        return dict(out)


class QSqrt2Counter:
    """Counts ``QSqrt2`` multiplications, additions, subtractions and inversions."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.enabled = True

    def install(self) -> None:
        from braidcert.scalars import QSqrt2

        for attr, key in COUNT_TARGETS:
            setattr(QSqrt2, attr, self._wrap(key, QSqrt2.__dict__[attr]))

    def _wrap(self, key, fn):
        counts = self.counts

        def counted(*args):
            if self.enabled:
                counts[key] += 1
            return fn(*args)

        return counted

    def layer_metrics(self) -> dict:
        return {f"scalars.QSqrt2.{key}": self.counts[key] for _, key in COUNT_TARGETS}
