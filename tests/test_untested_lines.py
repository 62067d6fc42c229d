"""``tools/untested_lines.py`` runs pytest under its tracer and lists the
statements that never ran."""

import ast
import os
import re
import subprocess
import sys

from conftest import ROOT

TOOL = ROOT / "tools" / "untested_lines.py"


def test_lists_the_statements_a_run_never_reaches():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider",
                           str(ROOT / "tests" / "test_exports.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    listed = re.findall(r"^src/logicdec/decoder\.py:(\d+): ", done.stdout, re.M)
    (decode,) = [node for node in ast.parse((ROOT / "src/logicdec/decoder.py").read_text())
                 .body if isinstance(node, ast.FunctionDef) and node.name == "decode"]
    # importing the modules runs their definitions, not decode's body
    assert any(decode.body[0].lineno < int(line) <= decode.end_lineno for line in listed)
    assert str(decode.lineno) not in listed
    assert re.search(r"^\d+ statements never ran$", done.stdout, re.M)


def test_the_loader_tests_reach_every_statement_of_the_binary_reader():
    """The untrusted-file reader's every refusal runs under tier-1: the
    shared reader and ``load_weights`` list no statement under the loader
    tests that do not draw examples."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    weights = "tests/test_transformer.py::TestWeightFile::"
    done = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider",
                           "tests/test_binary_formats.py",
                           weights + "test_malformed_header_rejected",
                           weights + "test_unsupported_version_rejected"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"^\d+ statements never ran$", done.stdout, re.M)
    for module, names in (("kb", {"FormatError", "SectionReader"}),
                          ("transformer", {"load_weights"})):
        spans = [range(node.lineno, node.end_lineno + 1) for node in
                 ast.parse((ROOT / f"src/logicdec/{module}.py").read_text()).body
                 if getattr(node, "name", None) in names]
        assert len(spans) == len(names)
        listed = re.findall(rf"^src/logicdec/{module}\.py:(\d+): .*$", done.stdout, re.M)
        assert [line for line in listed if any(int(line) in span for span in spans)] == []
