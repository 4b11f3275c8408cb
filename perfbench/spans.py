"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced public function of ``ratsos`` with
a wrapper, in every loaded ``ratsos`` module that holds a reference to it
(the defining module and every module that imported it by name), so calls
within a module are caught as well.  Each call records a span
``(name, start, end, parent, op)``; spans stay in memory until the run
ends.  Self time is a span's duration minus the durations of its direct
children.  ``poly`` and ``intervals`` are leaf arithmetic and are not
wrapped: their cost shows in the self time of their callers.
"""

import json
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = {
    "linalg": ("rref", "nullspace", "psd_check", "lin_solve", "ldl_sos"),
    "permgroup": ("enumerate_group", "fpf_involution_classes", "char_number", "orbit_closure", "classify"),
    "numfield": ("isolate_roots", "general_position", "quartic_galois", "obstruction_check", "norm_form"),
    "resultants": ("resultant", "det_ring"),
    "sturm": ("rational_roots", "isolate_real_roots", "refine_interval", "count_real_roots"),
    "foursquares": ("four_squares",),
    "gram": ("extract_qsos", "shrink_span", "span_basis"),
    "boundary": ("hilbert_function", "kernel_cubics", "boundary_cert", "uniqueness_cert", "empty_zero_check"),
    "cli": ("run",),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _rref_cells(args, result):
    rows = args[0]
    return "cells", len(rows) * (len(rows[0]) if len(rows) else 0)


def _group_elements(args, result):
    return "elements", len(result)


def _square_digits(args, result):
    r = Fraction(args[0])
    return "digits", len(str(abs(r.numerator * r.denominator)))


# name -> (args, result) -> (counter, amount); run on returned calls only
COUNTERS = {
    "linalg.rref": _rref_cells,
    "permgroup.enumerate_group": _group_elements,
    "foursquares.four_squares": _square_digits,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, op, raised)
        self.counts: dict = {}  # (name, counter) -> list of amounts
        self.op = -1
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, raised)
            if counter is not None:
                key, amount = counter(args, result)
                counts.setdefault((name, key), []).append(amount)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "ratsos" or n.startswith("ratsos.")]
        for name in TRACED:
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"ratsos.{layer}"], fn_name)
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list:
        """Self seconds of every span, aligned with ``self.spans``."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, n_ops: int, op_scale: dict | None = None) -> dict:
        """Per-operation calls and self time of every traced function, plus counters.

        ``op_scale`` maps an operation id to the factor its times are
        multiplied by (see calibration.py); missing ids keep raw seconds.
        """
        op_scale = op_scale or {}
        calls = dict.fromkeys(TRACED, 0)
        self_s = dict.fromkeys(TRACED, 0.0)
        errors = dict.fromkeys(TRACED, 0)
        for (name, _, _, _, op, raised), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own * op_scale.get(op, 1.0)
            errors[name] += raised
        out = {}
        for name in TRACED:
            if name != "cli.run":
                out[f"{name}.calls"] = (calls[name] / n_ops, "calls/op")
            out[f"{name}.self_s"] = (self_s[name] / n_ops, "s/op")
        out["linalg.rref.cells"] = (sum(self.counts.get(("linalg.rref", "cells"), [])) / n_ops, "cells/op")
        out["permgroup.enumerate_group.elements"] = (
            sum(self.counts.get(("permgroup.enumerate_group", "elements"), [])) / n_ops,
            "elements/op",
        )
        classified = calls["permgroup.classify"]
        out["permgroup.enumerations_per_group"] = (
            calls["permgroup.enumerate_group"] / classified if classified else 0.0,
            "calls/group",
        )
        out["sturm.rational_roots.errors"] = (errors["sturm.rational_roots"] / n_ops, "errors/op")
        out["foursquares.four_squares.digits_max"] = (
            max(self.counts.get(("foursquares.four_squares", "digits"), [0])),
            "digits",
        )
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, raised."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
