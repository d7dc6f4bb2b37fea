"""Outside-in tracing of the paritychain layers.

``install`` wraps the public functions listed in ``TRACED`` and puts each
wrapper into every ``paritychain.*`` namespace that holds the original, so
calls made inside the library (say ``canonical`` -> ``state_equivalence``)
become nested spans too.  A span records its name, start, end, the span
that caused it and the operation it belongs to; spans stay in memory and
are reduced to per-function self time and call counts when the pass ends.
Wrappers cost one flag test while the recorder is inactive, so set-up and
output checks run untraced.

Run as a script, it executes one CLI command as ``python -m paritychain.cli``
would, traced, and prints ``{"rc", "stdout", "layers"}`` as JSON:

    PYTHONPATH=src python3 bench/tracer.py validate src/paritychain/data/fig1.aut --json
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import runpy
import sys
import time

TRACED = {
    "graphs": ("state_equivalence", "dpa_language_equiv", "scc_decompose",
               "reachable_states", "dpa_lasso_run", "gca_lasso_member"),
    "canonical": ("structure_dpa_with_map", "streamline", "is_structured",
                  "is_streamlined", "extract_chain"),
    "colors": ("corun_color", "coruns", "natural_color_via_chain", "resolve_run"),
    "formats": ("parse_native", "emit_native", "parse_hoa", "emit_hoa"),
    "core": ("validate_dpa", "complete_dpa"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
COUNTERS = ("graphs.product_edges", "colors.coruns.returned")


def _product_edges(args, result):
    a, b = (args[0], args[0]) if len(args) == 1 else args[:2]
    return a.state_count * b.state_count * len(a.alphabet)


# Counters computed by a wrapper from the call's arguments or result.
_COUNTED = {
    "graphs.state_equivalence": ("graphs.product_edges", _product_edges),
    "graphs.dpa_language_equiv": ("graphs.product_edges", _product_edges),
    "colors.coruns": ("colors.coruns.returned", lambda args, result: len(result)),
}


class Recorder:
    """Spans of one traced pass: (op, name, start, end, parent index)."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn):
        counted = _COUNTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (self.op, name, start, end, parent)
            if counted:
                key, count = counted
                self.counters[key] += count(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-function ``self_ms`` (span minus its child spans) and
        ``calls``, plus the counters, totalled over the pass."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = 0.0
            out[f"{name}.calls"] = 0
        for i, (_, name, start, end, _) in enumerate(self.spans):
            out[f"{name}.self_ms"] += (end - start - child[i]) * 1e3
            out[f"{name}.calls"] += 1
        out.update(self.counters)
        out["trace.spans"] = len(self.spans)
        return out


def install(rec: Recorder) -> None:
    """Replace every traced function in every loaded paritychain module."""
    importlib.import_module("paritychain.cli")
    modules = [m for n, m in sys.modules.items()
               if n == "paritychain" or n.startswith("paritychain.")]
    for layer, fns in TRACED.items():
        home = sys.modules[f"paritychain.{layer}"]
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapper = rec.wrap(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _trace_cli(argv: list[str]) -> dict:
    """Run the CLI as ``python -m paritychain.cli`` does, with tracing on."""
    rec = Recorder()
    install(rec)
    out = io.StringIO()
    sys.argv = ["paritychain.cli", *argv]
    rec.active, rec.op = True, 0
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("paritychain.cli", run_name="__main__", alter_sys=True)
            rc = 0
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    rec.active = False
    return {"rc": rc, "stdout": out.getvalue(), "layers": rec.summary()}


if __name__ == "__main__":
    print(json.dumps(_trace_cli(sys.argv[1:])))
