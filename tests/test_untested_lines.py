"""``tools/untested_lines.py`` runs pytest under its tracer and lists the
statements that never ran; ``tools/traffic_lines.py`` does the same for the
package's real traffic."""

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


def unreached(tests: list[str], names_by_module: dict[str, set[str]]) -> list[str]:
    """The statements of the named top-level definitions that the tracer
    lists as never run under ``tests``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"^\d+ statements never ran$", done.stdout, re.M)
    out = []
    for module, names in names_by_module.items():
        spans = [range(node.lineno, node.end_lineno + 1) for node in
                 ast.parse((ROOT / f"src/logicdec/{module}.py").read_text()).body
                 if getattr(node, "name", None) in names]
        assert len(spans) == len(names)
        listed = re.findall(rf"^src/logicdec/{module}\.py:(\d+): .*$", done.stdout, re.M)
        out += [f"{module}:{line}" for line in listed if any(int(line) in span for span in spans)]
    return out


def test_the_loader_tests_reach_every_statement_of_the_binary_reader():
    """The untrusted-file reader's every refusal runs under tier-1: the
    shared reader and ``load_weights`` list no statement under the loader
    tests that do not draw examples."""
    weights = "tests/test_transformer.py::TestWeightFile::"
    assert unreached(["tests/test_binary_formats.py",
                      weights + "test_malformed_header_rejected",
                      weights + "test_unsupported_version_rejected"],
                     {"kb": {"FormatError", "SectionReader"},
                      "transformer": {"load_weights"}}) == []


def test_the_id_tests_reach_every_statement_of_the_token_id_check():
    """The one token-id check's every refusal runs under tier-1's id tests,
    and so does every statement of ``coverage_table``, which applies it to
    the concepts beside the 64-concept limit."""
    assert unreached(["tests/test_token_ids.py", "tests/test_decoder.py::TestConceptSet"],
                     {"lm": {"_check_token"}, "decoder": {"coverage_table"}}) == []


def test_traffic_tool_lists_what_one_demo_never_reaches():
    """``tools/traffic_lines.py`` shares the tracer: under the connectives
    demo it reaches ``or_vec`` but not ``decode``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    tool = ROOT / "tools" / "traffic_lines.py"
    done = subprocess.run([sys.executable, str(tool), "demo:01_soft_logic_basics"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"^\d+ statements never ran$", done.stdout, re.M)
    listed = {module: {int(line) for line in
                       re.findall(rf"^src/logicdec/{module}\.py:(\d+): ", done.stdout, re.M)}
              for module in ("prover", "decoder")}
    for module, name, reached in (("prover", "or_vec", True), ("decoder", "decode", False)):
        (node,) = [node for node in ast.parse((ROOT / f"src/logicdec/{module}.py").read_text())
                   .body if isinstance(node, ast.FunctionDef) and node.name == name]
        body = {n.lineno for n in node.body[1:]}  # past the docstring
        assert body.isdisjoint(listed[module]) if reached else body <= listed[module]
    unknown = subprocess.run([sys.executable, str(tool), "demo:none"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60)
    assert unknown.returncode == 2 and "unknown part 'demo:none'" in unknown.stderr


def test_the_prover_tests_reach_every_statement_of_the_batched_evaluator():
    """Every statement of the evaluator runs under the prover tests that draw
    no random examples: each kind of atom, connective, fold and memo path."""
    prover = "tests/test_prover.py::"
    assert unreached([prover + "TestProve", prover + "TestBatchedQuantifiers"],
                     {"prover": {"_Truths", "_slices", "_atom", "_at", "_union", "_connective",
                                 "_fold", "_split", "_batch", "_eval", "_call", "prove"}}) == []
