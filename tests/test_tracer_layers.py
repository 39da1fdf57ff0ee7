"""The benchmark tracer wraps library functions by name; a traced run
crashes if one of them is renamed or removed, or if a counter reads a field
that the library no longer returns."""

import importlib
import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import conealg.cli  # noqa: F401  (the tracer wraps the modules loaded already)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# max(r*a_k, s*b_k) pieces for a = (2, 1), b = (1, 2), with I_1 = (x, y^2)
# and I_2 = (y); the second spec's piece min(r, s) is not subadditive.
SPEC = {
    "variables": ["x", "y"],
    "a": [2, 1],
    "b": [1, 2],
    "ideals": [["x", "y^2"], ["y"]],
    "pieces": [[[0, 1], [2, 0], [2, 0]], [[0, 2], [0, 2], [1, 0]]],
}
REJECTED = dict(SPEC, a=[1], b=[1], ideals=[["x"]], pieces=[[[1, 0], [0, 1]]])


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _answer(argv):
    """Exit code, stdout and stderr of ``conealg.cli.main`` as bound now."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = importlib.import_module("conealg.cli").main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_traced_layer_exists():
    tracer = _load_tracer()
    for module, functions in tracer.LAYERS.items():
        target = importlib.import_module(f"conealg.{module}")
        for name in functions:
            assert callable(getattr(target, name, None)), f"conealg.{module}.{name}"


def test_every_counter_runs_on_one_op_per_subcommand(tmp_path):
    """Each subcommand answers traced as it does untraced: a counter that
    raised would end the op in a traceback or change its answer.  Every
    counter records its figures, and every call is a span."""
    spec, rejected = tmp_path / "spec.json", tmp_path / "rejected.json"
    spec.write_text(json.dumps(SPEC))
    rejected.write_text(json.dumps(REJECTED))
    argvs = [
        ["generators", "--a", "5,2", "--b", "2,3"],
        ["hilbert-basis", "--ray", "1,0", "--ray", "3,8"],
        ["fan", "--a", "5,2", "--b", "2,3"],
        ["verify", "--a", "5,2", "--b", "2,3", "--rmax", "6", "--smax", "6"],
        ["limits", "--a", "5,2", "--b", "2,3"],
        ["fan-algebra", "--spec", str(spec), "--verify", "4x4"],
        ["fan-algebra", "--spec", str(rejected)],
    ]
    untraced = [_answer(argv) for argv in argvs]
    module = _load_tracer()
    tracer = module.Tracer()
    with tracer.installed():
        traced = [_answer(argv) for argv in argvs]
    assert traced == untraced
    assert [code for code, _, _ in traced] == [0] * 6 + [2]
    assert set(tracer.counts) == {"det_sum", "elements", "candidates", "kept", "rejections"}
    assert tracer.counts["rejections"] == 1
    main = module.NAMES.index("cli.main")
    assert list(tracer.name).count(main) == len(argvs)
