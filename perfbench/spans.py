"""Span recorder for traced runs, installed from outside the library.

`instrument` rebinds every public function of each superext layer module,
in every superext module namespace that imported it, with a wrapper that
records a span: name, start, end, parent span and op id.  Spans stay in
memory until `write_jsonl`; `reduce_spans` turns them into per-name call
counts, self time (duration minus the cover of child spans) and counters.

Per-element helpers (vector arithmetic, permutation signs, rational
parsing) are left unwrapped: one of their calls costs about as much as a
span, so their time stays in the self time of the calling function.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from inputs import cochain_dim_total

LAYERS = ("cli", "formats", "superlie", "gvs", "cochains", "cohomology", "extensions")

UNWRAPPED = {
    "gvs": {"scalar", "vec", "zero_vec", "unit_vec", "vec_add", "vec_sub", "vec_scale",
            "is_zero_vec", "mat", "zeros", "identity", "mat_vec", "mat_add", "mat_sub",
            "mat_scale"},
    "cochains": {"multigraded_sign", "compose_perms", "permute_word", "sort_indices"},
    "formats": {"parse_rational", "format_rational"},
}

# Span record fields.
NAME, START, END_CALL, END, PARENT, OP, COUNT = range(7)


def _max_bits(rows) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in rows for x in row), default=0)


def _count_rref(args, result):
    rows = args[0]
    red, pivots = result
    return {"rows": len(rows), "cells": len(rows) * (len(rows[0]) if rows else 0),
            "rank": len(pivots), "max_bits": _max_bits(red)}


def _count_delta_matrix(args, result):
    rows, src, dst = result
    return {"cells": len(src) * len(dst),
            "nnz": sum(1 for row in rows for x in row if x != 0)}


def _count_cohomology_space(args, result):
    g, mod, n = args[:3]
    return {"dim_C": cochain_dim_total(g, mod.space, n)}


def _count_accept(args, result):
    return {"accepted": int(bool(result))}


def _count_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


COUNTERS = {
    "gvs.rref": _count_rref,
    "cohomology.delta_matrix": _count_delta_matrix,
    "cohomology.cohomology_space": _count_cohomology_space,
    "gvs.IncrementalSpan.add": _count_accept,
    "formats.dump_json": _count_bytes,
}


class Recorder:
    """In-memory span list; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END_CALL] = rec[END] = clock()
                stack.pop()
            if count is not None:
                # Counting runs after END_CALL: it is excluded from this
                # span's self time and from its parent's.
                rec[COUNT] = count(args, result)
                rec[END] = clock()
            return result

        return traced


def instrument(recorder: Recorder) -> None:
    """Rebind the public layer functions, and IncrementalSpan.add, everywhere."""
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"superext.{layer}"]
        skip = UNWRAPPED.get(layer, set())
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or attr in skip or inspect.isclass(obj)
                    or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrapped[id(obj)] = (obj, recorder.wrap(f"{layer}.{attr}", obj))
    for name, mod in list(sys.modules.items()):
        if name == "superext" or name.startswith("superext."):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
    span_cls = sys.modules["superext.gvs"].IncrementalSpan
    span_cls.add = recorder.wrap("gvs.IncrementalSpan.add", span_cls.add)


def write_jsonl(spans, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def read_jsonl(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def reduce_spans(spans, agg: dict | None = None) -> dict:
    """Fold one process's spans into {name: {"calls", "self_s", "total_s", counters...}}.

    Spans opened outside an op (op id < 0) are left out.
    """
    agg = {} if agg is None else agg
    cover = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            cover[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        if s[OP] < 0:  # work done outside an op, such as output checks
            continue
        entry = agg.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += s[END_CALL] - s[START] - cover[i]
        entry["total_s"] += s[END_CALL] - s[START]
        for key, val in (s[COUNT] or {}).items():
            if key == "max_bits":
                entry[key] = max(entry.get(key, 0), val)
            else:
                entry[key] = entry.get(key, 0) + val
    return agg
