"""What ``import braidcert.cli`` loads: each command is a fresh process, so
every module imported at start-up is paid for by every call.  And the names
the benchmark tracer patches, which must stay where it looks for them."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import braidcert

ROOT = Path(__file__).resolve().parents[1]
REPORT_N3 = ROOT / "perfbench" / "data" / "certify_n3.json"
# stdlib modules no import-time code of braidcert needs
UNNEEDED = ("dataclasses", "inspect", "typing", "fractions", "decimal", "importlib.resources", "pathlib", "tempfile", "shutil")
# the modules perfbench/tracer.py wraps, looked up in sys.modules right after the import
TRACED = ("linalg", "bimodcalc", "homotopy", "polyring", "words", "freegroup", "scalars", "cli")

_PROBE = """
import contextlib, io, json, sys
import braidcert.cli
loaded = {"import": sorted(sys.modules)}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = braidcert.cli.main(argv)
    loaded[argv[0]] = [code, out.getvalue(), sorted(sys.modules)]
print(json.dumps(loaded))
"""


def test_cli_import_loads_only_what_it_needs():
    # -S: no site hook, so every module listed came from the import or the runs
    src = os.path.dirname(os.path.dirname(braidcert.__file__))
    runs = [
        ["certify-pair", "s0 z0", "z0 s0", "--n", "2", "--format", "json"],
        ["verify-certificate", str(REPORT_N3)],
    ]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps(runs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stderr == ""
    loaded = json.loads(proc.stdout)
    after_import = set(loaded["import"])
    assert sorted(after_import & set(UNNEEDED)) == []
    assert {f"braidcert.{name}" for name in TRACED} <= after_import
    # certify-pair prints its polynomials from the ints, and verify-certificate
    # reads the schemas through the module's loader: neither needs them either
    code, out, modules = loaded["certify-pair"]
    assert code == 0 and '"kind": "iso"' in out
    assert sorted(set(modules) & set(UNNEEDED)) == []
    code, out, modules = loaded["verify-certificate"]
    assert code == 0 and out.count("[ok]") == 25
    assert sorted(set(modules) & set(UNNEEDED)) == []


def _tracer_table(name: str) -> tuple:
    """The literal tuple assigned to ``name`` in perfbench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return ast.literal_eval(value)


def test_every_name_the_benchmark_tracer_patches_exists():
    # the tracer rebinds functions by module attribute and patches methods in
    # their class's __dict__; a name deleted here fails only a traced
    # benchmark run, so every one is looked up where the tracer looks
    from braidcert.scalars import QSqrt2

    spans = _tracer_table("SPAN_TARGETS")
    assert spans
    for _, module_name, path in spans:
        module = importlib.import_module(module_name)
        owner, _, attr = path.rpartition(".")
        if owner:
            assert callable(vars(getattr(module, owner)).get(attr)), path
        else:
            assert callable(getattr(module, attr, None)), path
    counted = [attr for attr, _ in _tracer_table("COUNT_TARGETS")]
    assert counted and [attr for attr in counted if attr not in QSqrt2.__dict__] == []
