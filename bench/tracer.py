"""Spans around the calls into each layer of ``conealg``, from outside it.

``Tracer.installed()`` wraps the public functions listed in ``LAYERS`` and
rebinds each wrapper in every loaded ``conealg`` module that holds the
original (the defining module and every module that imported the name), so
calls between modules and within a module both pass through it.  No source
file is touched, and leaving the context restores the originals.

Each call becomes one span: name, start, end, parent span and the operation
it belongs to, kept in flat arrays in memory and written once at the end.
A few layers also count their work (see ``_COUNTERS``).  Busy time is the sum
of a function's span durations and self time is busy time minus the time of
its child spans; no traced function reaches itself through another traced
function, so the spans of one name never nest.  The figures are reported per
operation, so that they do not grow with the number of operations a timed
run gets through.
"""

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "fans": ("build_fan", "fan_order", "locate"),
    "lattice": ("hilbert_basis", "decompose_over"),
    "monomials": ("principal_intersection", "ideal_power", "ideal_product"),
    "generators": ("intersection_generators", "verify_generation"),
    "fan_algebra": ("load_fan_algebra_spec", "check_fan_linear", "fan_algebra_generators",
                    "graded_component", "verify_fan_algebra"),
}

NAMES = [f"{module}.{function}" for module, functions in LAYERS.items() for function in functions]


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.counts = {}
        self._stack = []

    def _wrap(self, name_id, fn, count):
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            span = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(span)
            raised = None
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                raised = e
                raise
            finally:
                end[span] = perf_counter()
                stack.pop()
                if count:
                    count(self.counts, args, None if raised else result, raised)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def installed(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "conealg" or key.startswith("conealg."))]
        replaced = []
        for name_id, qualified in enumerate(NAMES):
            module_name, function = qualified.split(".")
            original = getattr(sys.modules[f"conealg.{module_name}"], function)
            wrapper = self._wrap(name_id, original, _COUNTERS.get(qualified))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    def layer_stats(self, ops):
        """calls, busy_s and self_s per traced function and the counters, each
        divided by ``ops``, plus the share of candidate products kept."""
        n = len(NAMES)
        calls, busy, child = [0] * n, [0.0] * n, [0.0] * n
        names, parents = self.name, self.parent
        for span in range(len(names)):
            duration = self.end[span] - self.start[span]
            calls[names[span]] += 1
            busy[names[span]] += duration
            if parents[span] >= 0:
                child[names[parents[span]]] += duration
        stats = {}
        for i, qualified in enumerate(NAMES):
            stats[f"{qualified}.calls"] = calls[i] / ops
            stats[f"{qualified}.busy_s"] = busy[i] / ops
            stats[f"{qualified}.self_s"] = (busy[i] - child[i]) / ops
        counts = self.counts
        stats["lattice.hilbert_basis.det_sum"] = counts.get("det_sum", 0) / ops
        stats["lattice.hilbert_basis.elements"] = counts.get("elements", 0) / ops
        candidates = counts.get("candidates", 0)
        stats["monomials.ideal_product.candidates"] = candidates / ops
        stats["monomials.ideal_product.kept_ratio"] = (
            counts.get("kept", 0) / candidates if candidates else 0.0)
        stats["fan_algebra.check_fan_linear.rejections"] = counts.get("rejections", 0) / ops
        return stats

    def write_spans(self, directory):
        """One raw native-endian file per span column (name index, parent
        span or -1, op index, start and end in perf_counter seconds) plus
        names.json, which maps name indices to names and columns to typecodes."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.name, "parent": self.parent, "op": self.op,
                   "start": self.start, "end": self.end}
        for column, values in columns.items():
            with open(directory / f"{column}.bin", "wb") as out:
                values.tofile(out)
        (directory / "names.json").write_text(json.dumps(
            {"names": NAMES, "typecodes": {c: v.typecode for c, v in columns.items()}}))


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_hilbert_basis(counts, args, result, raised):
    c = args[0]
    _add(counts, "det_sum", c.ray_low.r * c.ray_high.s - c.ray_low.s * c.ray_high.r)
    if result is not None:
        _add(counts, "elements", len(result.elements))


def _count_ideal_product(counts, args, result, raised):
    _add(counts, "candidates", len(args[0].gens) * len(args[1].gens))
    if result is not None:
        _add(counts, "kept", len(result.gens))


def _count_check_fan_linear(counts, args, result, raised):
    if type(raised).__name__ == "FanLinearityError":
        _add(counts, "rejections", 1)


_COUNTERS = {
    "lattice.hilbert_basis": _count_hilbert_basis,
    "monomials.ideal_product": _count_ideal_product,
    "fan_algebra.check_fan_linear": _count_check_fan_linear,
}
