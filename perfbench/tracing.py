"""Spans around pertwave's public entry points, installed from outside.

install() replaces each listed function or method with a wrapper that
records a span (name, start, end, parent span, item id) and per-name call
counts and self time.  Every alias of the function in every loaded pertwave
module is replaced, so calls between modules (for example cauchy calling
quadrature.adaptive_gauss through its own import) are inside the spans too.
Nothing under src/ is edited; uninstall() puts the originals back.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 200_000  # spans kept for the dump; the aggregates cover every call
CLI_COMMANDS = ("basis", "build", "verify", "invert", "evolve", "fdref", "compare")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.item = None
        self._stack = []  # frames [span_id, start, child_seconds]
        self._next_id = 0

    def count(self, name, amount=1):
        self.counts[name] += amount

    def counting(self, name, fn):
        """fn, counting the rows of its first argument under `name`."""

        def counted(values, *args, **kwargs):
            self.counts[name] += _rows(values)
            return fn(values, *args, **kwargs)

        return counted

    def wrap(self, name, fn, before=None, after=None, failed=None):
        """fn inside a span.

        before(args, kwargs) may rewrite the arguments, after(result) and
        failed(exception) see how the call ended.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(name, frame, parent)
                if failed is not None:
                    failed(exc)
                raise
            self._close(name, frame, parent)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, frame, parent):
        end = perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        if parent is not None:
            parent[2] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else None, self.item))
        else:
            self.dropped += 1

    def write(self, path):
        """Write the kept spans as JSON lines, then a summary line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, item in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "item": item}))
                handle.write("\n")
            handle.write(json.dumps({"spans_kept": len(self.spans),
                                     "spans_dropped": self.dropped}) + "\n")


def _rows(values):
    shape = getattr(values, "shape", None)
    if shape is None:
        return len(values) if hasattr(values, "__len__") else 1
    if len(shape) == 0:
        return 1
    return shape[0]


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def entry_points(tracer):
    """(span name, owner, attribute, before, after, failed) per traced entry point."""
    from pertwave import (basis, cauchy, cli, errors, hyp2f1, invert, quadrature,
                          ring, serialize, solutions)

    def count_points(args, kwargs):
        tracer.count("ring.eval_points.points", _rows(args[1]))
        return args, kwargs

    def count_elements(result):
        tracer.count("basis.elements", len(result.elements))

    def count_phi_terms(bundle):
        tracer.count("ring.phi_terms", sum(len(p.terms) for p in bundle.phi.layers.values()))

    def count_integrand(args, kwargs):
        f = args[0]

        def counted(x):
            tracer.counts["quadrature.adaptive_gauss.panels"] += 1
            tracer.counts["quadrature.adaptive_gauss.nodes"] += _rows(x)
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def count_exhausted(exc):
        if isinstance(exc, errors.ToleranceNotMet):
            tracer.count("quadrature.adaptive_gauss.budget_exhausted")

    def read_bytes(args, kwargs):
        tracer.count("serialize.read.bytes", _file_bytes(args[0]))
        return args, kwargs

    def write_bytes(args, kwargs):
        tracer.count("serialize.write.bytes", len(args[1].encode()))
        return args, kwargs

    points = [
        ("ring.normalize", ring, "normalize", None, None, None),
        ("ring.RhoExpr.box", ring.RhoExpr, "box", None, None, None),
        ("ring.RhoExpr.euler_h", ring.RhoExpr, "euler_h", None, None, None),
        ("ring.RhoExpr.mul", ring.RhoExpr, "__mul__", None, None, None),
        ("ring.Polynomial.mul", ring.Polynomial, "__mul__", None, None, None),
        ("ring.eval_points", ring.RhoExpr, "eval_points", count_points, None, None),
        ("basis.wave_basis", basis, "wave_basis", None, count_elements, None),
        ("solutions.build_phi", solutions, "build_phi", None, count_phi_terms, None),
        ("solutions.residual", solutions, "residual", None, None, None),
        ("hyp2f1.fk_ode_residual", hyp2f1, "fk_ode_residual", None, None, None),
        ("quadrature.adaptive_gauss", quadrature, "adaptive_gauss", count_integrand, None,
         count_exhausted),
        ("quadrature.fixed_gauss_01_batch", quadrature, "fixed_gauss_01_batch", None, None, None),
        ("invert.recover_n2", invert, "recover_n2", None, None, None),
        ("invert.recover_n4", invert, "recover_n4", None, None, None),
        ("invert.h_shift_inverse", invert, "h_shift_inverse", None, None, None),
        ("cauchy.evolve_grid", cauchy, "evolve_grid", None, None, None),
        ("cauchy.evolve_point", cauchy, "evolve_point", None, None, None),
        ("cauchy.fd_reference", cauchy, "fd_reference", None, None, None),
        ("cauchy.pde_residual_fd", cauchy, "pde_residual_fd", None, None, None),
        ("serialize.read", serialize, "read_doc", read_bytes, None, None),
        ("serialize.read", serialize, "read_field_csv", read_bytes, None, None),
        ("serialize.read", serialize, "read_points_csv", read_bytes, None, None),
        ("serialize.read", serialize, "read_samples_csv", read_bytes, None, None),
        ("serialize.write", serialize, "atomic_write_text", write_bytes, None, None),
        ("serialize.doc_to_expr", serialize, "doc_to_expr", None, None, None),
    ]
    points += [(f"cli.{cmd}", cli, f"cmd_{cmd}", None, None, None) for cmd in CLI_COMMANDS]
    return points


def install(tracer):
    """Wrap every entry point and all of its aliases; returns the undo list."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "pertwave" or name.startswith("pertwave."))]
    undo = []
    for name, owner, attr, before, after, failed in entry_points(tracer):
        original = owner.__dict__.get(attr)
        if original is None:
            continue  # entry point not present in this version of the program
        wrapped = tracer.wrap(name, original, before, after, failed)
        owners = modules + [owner] if isinstance(owner, type) else modules
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is original:
                    undo.append((target, key, original))
                    setattr(target, key, wrapped)
    return undo


def uninstall(undo):
    for target, key, original in reversed(undo):
        setattr(target, key, original)


def layer_metrics(tracer):
    """Per-layer metrics: calls and self time per span name, plus the counts."""
    names = dict.fromkeys(name for name, *_ in entry_points(tracer))
    out = {}
    for name in names:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "count")
    out["serialize.read.bytes"] = (tracer.counts["serialize.read.bytes"], "bytes")
    out["serialize.write.bytes"] = (tracer.counts["serialize.write.bytes"], "bytes")
    return out


COUNTS = (
    "ring.eval_points.points",
    "ring.phi_terms",
    "basis.elements",
    "quadrature.adaptive_gauss.panels",
    "quadrature.adaptive_gauss.nodes",
    "quadrature.adaptive_gauss.budget_exhausted",
    "invert.field_points",
    "cauchy.data_points",
    "cli.exit_mismatch",
)
