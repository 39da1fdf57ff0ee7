"""The cold start of the conealg command: a fresh interpreter that imports
``conealg.cli`` and answers ``generators`` loads none of the slow standard
modules that only some subcommands need, and the subcommands that import
them on first use still answer as they do in this process."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from conealg.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SLOW_MODULES = ("dataclasses", "inspect", "fractions", "decimal", "json")
FIRST = ["generators", "--a", "5,2", "--b", "2,3"]
SPEC = {
    "variables": ["x", "y"],
    "a": [1],
    "b": [1],
    "ideals": [["x", "y"]],
    "pieces": [[[1, 2], [2, 1]]],
}

# Run with ``python -S``, so no site hook imports anything first.  It prints
# repr([modules loaded after FIRST, [[code, stdout] per call]]); it imports
# nothing past conealg.cli before the module check.
CHILD = """
import io, sys
sys.path.insert(0, {src!r})
from conealg.cli import main

def call(argv):
    sys.stdout = buffer = io.StringIO()
    try:
        code = main(argv)
    finally:
        sys.stdout = sys.__stdout__
    return [code, buffer.getvalue()]

results = [call({first!r})]
loaded = [name for name in {slow!r} if name in sys.modules]
results += [call(argv) for argv in {later!r}]
print(repr([loaded, results]))
"""


def test_generators_cold_start_loads_no_slow_module(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    later = [
        ["limits", "--a", "1,2", "--b", "2,1", "--format", "json"],
        ["fan-algebra", "--spec", str(spec), "--verify", "2x2", "--format", "json"],
    ]
    source = CHILD.format(src=str(SRC), first=FIRST, slow=SLOW_MODULES, later=later)
    child = subprocess.run([sys.executable, "-S", "-c", source],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0 and child.stderr == ""
    loaded, results = ast.literal_eval(child.stdout)
    assert loaded == []
    expected = []
    for argv in [FIRST, *later]:
        code = main(argv)
        expected.append([code, capsys.readouterr().out])
    assert results == expected
    assert [code for code, _ in results] == [0, 0, 0]


def test_import_timing_runs_the_benchmark_setup_command():
    path = ROOT / "tools" / "import_timing.py"
    spec = importlib.util.spec_from_file_location("import_timing", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    assigned = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert ast.literal_eval(assigned["SETUP_ARGV"]) == tool.SETUP_ARGV
    assert tool.SETUP_CODE in {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}


def test_import_timing_closed_stdout_exits_1_without_a_traceback():
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "import_timing.py"), "--runs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert err == b""
