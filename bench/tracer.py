"""Span tracing around the public functions of each skkinv layer.

`Tracer.install()` replaces every reference to a traced function inside the
skkinv modules (the defining module and every module that imported it under
some name) with a wrapper that records a span; `uninstall()` puts the
originals back. Spans live in memory as parallel integer arrays and are
written out once, when the run ends. Self time is accumulated online: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# traced functions by layer (module), under their defining names
LAYERS = {
    "exact_linalg": ("smith_normal_form", "rational_rank", "symmetric_signature"),
    "intersection_form": ("intersection_matrix", "signature"),
    "simplicial": ("complex_from_json", "homology", "boundary_matrix",
                   "SimplicialComplex.simplices", "validate_closed", "orient",
                   "euler_characteristic"),
    "cobordism": ("parse_word", "normal_form", "random_word", "equivalent_rewrite"),
    "tqft": ("evaluate", "verify_axioms"),
    "surfaces": ("parse_script", "apply_script", "cut", "paste"),
    "skk": ("skk_class", "verify_split_sequence", "b_sigma_dependence_demo"),
    "virtual_bordism": ("catalog_from_json", "close_up"),
    "cli": ("run",),
}


def _matrix_entries(args, kwargs, result):
    return args[0].rows * args[0].cols


def _word_generators(word):
    return sum(len(layer) for layer in word.layers)


# work counted at a span: span name -> (counter, function of args, kwargs, result)
WORK = {
    "exact_linalg.smith_normal_form": ("entries", _matrix_entries),
    "exact_linalg.rational_rank": ("entries", _matrix_entries),
    "exact_linalg.symmetric_signature": ("entries", lambda a, k, r: len(a[0]) ** 2),
    "simplicial.complex_from_json": ("bytes", lambda a, k, r: len(a[0].encode())),
    "cobordism.normal_form": ("generators", lambda a, k, r: _word_generators(a[0])),
    "tqft.evaluate": ("generators", lambda a, k, r: _word_generators(a[1])),
    "surfaces.parse_script": ("moves", lambda a, k, r: len(r)),
    "surfaces.paste": ("pairs", lambda a, k, r: len(a[1].pairs)),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.work = dict.fromkeys(WORK, 0)
        self.request_id = -1
        # spans as parallel arrays: name index, start, end, parent span, request
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self._stack: list[list[int]] = []      # [span index, child duration]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        layer_modules = {name: importlib.import_module(f"skkinv.{name}") for name in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "skkinv" or name.startswith("skkinv.")]
        index = 0
        for mod_name, functions in LAYERS.items():
            module = layer_modules[mod_name]
            for qualified in functions:
                if "." in qualified:
                    cls_name, attr = qualified.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(index, original))
                else:
                    original = getattr(module, qualified)
                    wrapper = self._wrap(index, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, original, wrapper)
                index += 1

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every name the tracer patched holds its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patched)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------------

    def _wrap(self, index, fn):
        span = self.names[index]
        work = WORK.get(span)
        stack = self._stack
        clock = time.perf_counter_ns
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, requests = self.span_parent, self.span_request
        tracer = self

        def traced(*args, **kwargs):
            me = len(starts)
            names.append(index)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(tracer.request_id)
            ends.append(0)
            frame = [me, 0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[me] = end
                stack.pop()
                duration = end - start
                tracer.calls[index] += 1
                tracer.self_ns[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if work is not None:
                tracer.work[span] += work[1](args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- output ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self time in seconds, and work counts."""
        out = {}
        for index, span in enumerate(self.names):
            entry = {"calls": self.calls[index], "self_s": self.self_ns[index] / 1e9}
            if span in WORK:
                entry[WORK[span][0]] = self.work[span]
            out[span] = entry
        return out

    def write_spans(self, path: str) -> int:
        """Tab-separated spans, one per line, times in nanoseconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_start)):
                handle.write(f"{self.span_request[i]}\t{i}\t{self.span_parent[i]}\t"
                             f"{names[self.span_name[i]]}\t{self.span_start[i]}\t"
                             f"{self.span_end[i]}\n")
        return len(self.span_start)
