"""Span recorder that wraps modkernel's public functions from the outside.

``SpanRecorder.install`` replaces each target function, and every other
name in a ``modkernel`` module bound to the same function object (the
``from .x import f`` aliases and the package re-exports), with a wrapper
that records a span: name, start, end, parent span and operation id.
Spans are kept in memory; ``restore`` puts every original back.  Self
time is a span's duration minus the time its child spans cover.

Counters are taken at the same boundaries as the spans, from each call's
arguments and result, so they are exact and repeat from run to run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

ORIGINAL_ATTR = "__perfbench_original__"


def _count_graph_nodes(rec, args, kwargs, result):
    rec.counts["autodiff.graph_nodes"] += len(result)


def _count_backward_calls(rec, args, kwargs, result):
    rec.counts["autodiff.backward.calls"] += 1


def _count_kernel_bytes(rec, args, kwargs, result):
    rec.counts["kernels.kernel_matrix.bytes"] += result.shape[0] ** 2 * 8


def _count_pairs(rec, args, kwargs, result):
    rec.counts["proxies.pairs"] += result.n * (result.n - 1)


def _count_lemma_instances(rec, args, kwargs, result):
    rec.counts["geometry.lemma_instances"] += result.instances


def _count_bytes_written(rec, args, kwargs, result):
    # metadata.json holds wall-clock data, so its size is not a count.
    path = args[0] if args else kwargs["path"]
    if os.path.basename(path) != "metadata.json":
        rec.counts["serialize.bytes_written"] += os.path.getsize(path)


# (module, function, counter or None); span names are "module.function".
TARGETS = (
    ("autodiff", "affine", None),
    ("autodiff", "elementwise", None),
    ("autodiff", "unit_normalize", None),
    ("autodiff", "cross_entropy_logits", None),
    ("autodiff", "backward", _count_backward_calls),
    ("autodiff", "topological_order", _count_graph_nodes),
    ("autodiff", "sgd_step", None),
    ("kernels", "kernel_matrix", _count_kernel_bytes),
    ("kernels", "gram_tensor", None),
    ("proxies", "partition_pairs", _count_pairs),
    ("proxies", "proxy_value", None),
    ("proxies", "proxy_tensor", None),
    ("training", "train_input_module", None),
    ("training", "freeze_and_train_output", None),
    ("training", "train_end_to_end", None),
    ("training", "full_proxy_value", None),
    ("geometry", "run_lemma_suite", _count_lemma_instances),
    ("geometry", "optimality_bruteforce", None),
    ("transfer", "score_candidate", None),
    ("transfer", "retrain_oracle", None),
    ("datasets", "make_dataset", None),
    ("config", "load_config", None),
    ("experiments", "run_experiment", None),
    ("serialize", "write_json", _count_bytes_written),
    ("serialize", "write_csv", _count_bytes_written),
)

SPAN_NAMES = tuple(f"{module}.{func}" for module, func, _ in TARGETS)
COUNT_NAMES = ("autodiff.graph_nodes", "autodiff.backward.calls",
               "proxies.pairs", "kernels.kernel_matrix.bytes",
               "geometry.lemma_instances", "serialize.bytes_written")


def package_modules(package: str = "modkernel") -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package
                                  or name.startswith(package + "."))]


def wrapped_attributes(package: str = "modkernel") -> list:
    """Every ``module.name`` in the package still bound to a wrapper."""
    return [f"{m.__name__}.{name}" for m in package_modules(package)
            for name, value in vars(m).items()
            if callable(value) and hasattr(value, ORIGINAL_ATTR)]


class SpanRecorder:
    """Records spans and counters around modkernel's public functions."""

    def __init__(self):
        self.spans: list = []
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def install(self, package: str = "modkernel") -> list:
        """Wrap every target at every name it is bound to; returns the
        patched ``module.name`` list."""
        if self._patched:
            raise RuntimeError("recorder is already installed")
        modules = package_modules(package)
        by_module = {m.__name__: m for m in modules}
        for module, func, counter in TARGETS:
            original = getattr(by_module[f"{package}.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, counter)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._patched.append((m, name, original))
        return [f"{m.__name__}.{name}" for m, name, _ in self._patched]

    def restore(self) -> None:
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()

    def _wrap(self, span_name: str, fn, counter):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack
            parent = stack[-1][0] if stack else -1
            index = len(rec.spans)
            rec.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(rec, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                rec.self_s[span_name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                rec.spans[index] = (span_name, start, end, parent, rec.op)

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    def snapshot(self) -> dict:
        """Current self times and counts, for per-pass differences."""
        return {**{f"{name}.self_s": value for name, value in self.self_s.items()},
                **self.counts}

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
