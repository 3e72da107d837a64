"""Self-tests of the benchmark itself (not of braidcert).

    python3 perfbench/selftest.py [workload ...]     # default: all four

Checks, for the named workloads:
  * the layer wrappers leave no braidcert namespace bound to an unwrapped
    function;
  * two traced runs with the same seed give identical counts (every per-layer
    metric that is not a time), QSqrt2 operation counts included, with no
    failed operation;
  * every declared per-layer metric is non-zero on at least one workload
    (only checked when all four workloads run).  No workload meets a chain
    map that fails to invert, so graded_inverse.none is checked on a
    singular morphism instead;
  * certify: the untraced run is correct, so the traced and untraced runs
    both wrote the file with the certify --n 2 sha256; kernel_basis has the
    largest self time and its largest system is 1044 x 303.

Takes about eight minutes for all four workloads, most of it certify.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMES = ("self_s", "max_call_s", "cpu_s", "overhead_s")
PROBED = {"bimodcalc.Morphism.graded_inverse.none"}


def bench(workload, trace, seed=7):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "5", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} trace {trace}: failures\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _resolve(module_name, path):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def check_wrappers() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import braidcert.cli  # noqa: F401  (imports every module the CLI reaches)
    import tracer

    originals = {(m, p): _resolve(m, p) for _, m, p in tracer.SPAN_TARGETS}
    spans = tracer.SpanTracer()
    spans.install()
    # methods are patched on their class, functions in every module binding them
    stale = [f"{m}.{p}" for (m, p), fn in originals.items() if _resolve(m, p) is fn]
    by_id = {id(fn): f"{m}.{p}" for (m, p), fn in originals.items()}
    stale += [
        f"{name}.{attr} -> {by_id[id(value)]}"
        for name, module in sys.modules.items()
        if name == "braidcert" or name.startswith("braidcert.")
        for attr, value in vars(module).items()
        if id(value) in by_id
    ]
    assert not stale, f"unwrapped bindings remain: {stale}"
    print("ok   every namespace binding of a traced function is wrapped")

    from braidcert.bimodcalc import Morphism, bimodule_R

    assert Morphism.zero(bimodule_R(2), bimodule_R(2)).graded_inverse() is None
    none = spans.layer_metrics()["bimodcalc.Morphism.graded_inverse.none"]
    assert none == 1, f"graded_inverse.none counted {none} for one singular morphism"
    print("ok   graded_inverse.none counts a singular morphism")


def main(argv) -> int:
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    workloads = argv or ["invariant", "verify", "pairs", "certify"]
    check_wrappers()
    nonzero = set()
    for w in workloads:
        first, second = bench(w, 1), bench(w, 1)
        counts = [k for k in declared if not k.endswith(TIMES)]
        moved = {k: (first[k], second[k]) for k in counts if first[k] != second[k]}
        assert not moved, f"{w}: counts differ between two traced runs: {moved}"
        nonzero.update(k for k in declared if first[k])
        print(f"ok   {w}: {len(counts)} counts repeat exactly across two traced runs")
        if w == "certify":
            bench(w, 0)
            print("ok   certify: traced and untraced runs wrote the n=2 sha256")
            selfs = {k: v for k, v in first.items() if k.endswith(".self_s")}
            top = max(selfs, key=selfs.get)
            assert top == "linalg.kernel_basis.self_s", f"largest self time is {top}"
            shape = (first["linalg.kernel_basis.largest_rows"], first["linalg.kernel_basis.largest_cols"])
            assert shape == (1044, 303), f"largest kernel_basis system {shape}"
            print("ok   certify: kernel_basis has the largest self time, largest system 1044x303")
    if len(workloads) == 4:
        zero = [k for k in declared if k not in nonzero | PROBED]
        assert not zero, f"never non-zero on any workload: {zero}"
        print(f"ok   all {len(declared)} per-layer metrics are non-zero on some workload")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
