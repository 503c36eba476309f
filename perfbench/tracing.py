"""In-memory spans around the calls into each dgmono layer.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span or -1.  Spans are recorded by the benchmark itself: around its
own calls into the package, and, while :func:`instrument` is active, around
the package's public functions, which are patched by name in every module
namespace that calls them and restored afterwards.  Nothing inside
``dgmono`` is changed on disk.
"""

from __future__ import annotations

import contextlib
import functools
import time

import scipy.sparse.linalg


class Tracer:
    """Span recorder; ``notes`` holds per-call values a span cannot carry."""

    def __init__(self):
        self.spans = []
        self.notes = {"colors": [], "lu_fill": [], "picard_phase_iters": []}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if note is not None:
                note(self.notes, out)
            return out
        return traced

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time counts only the outermost span of a name, so a name
        nested in itself is not counted twice."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl += t1 - t0
            out[name] = (calls + 1, incl, self_s + (t1 - t0) - child_time[i])
        return out

    def dump(self):
        return {"spans": [{"name": s[0], "start": s[1], "end": s[2],
                           "parent": s[3]} for s in self.spans],
                "notes": self.notes}


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def span(self, name):
        return contextlib.nullcontext()


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``dgmono.solve`` so that
    ``splu`` is traced; every other attribute is the real one."""

    def __init__(self, splu):
        self.splu = splu

    def __getattr__(self, name):
        return getattr(scipy.sparse.linalg, name)


def _note_colors(notes, out):
    notes["colors"].append(int(out[1]))


def _note_lu(notes, lu):
    # stored entries of L and U; cheaper than building lu.L and lu.U
    notes["lu_fill"].append(int(lu.nnz))


def _note_picard(notes, out):
    notes["picard_phase_iters"].append(len(out[1].residuals))


@contextlib.contextmanager
def instrument(tracer):
    """Patch the layer entry points of dgmono with span-recording wrappers."""
    from dgmono import detector, solve, stabilization

    cls = stabilization.StabilizedProblem
    patches = [
        (detector, "build_pair_topology", "detector.topology", None),
        (stabilization, "alpha_all", "detector.alpha", None),
        (stabilization, "build_viscosity", "stabilization.viscosity", None),
        (stabilization, "build_stabilized", "stabilization.operators", None),
        (solve, "build_stabilized", "stabilization.operators", None),
        (cls, "residual_steady", "stabilization.residual", None),
        (cls, "residual_transient", "stabilization.residual", None),
        (solve, "solve_linear", "solve.linear", None),
        (solve, "fd_jacobian", "solve.jacobian", None),
        (solve, "color_columns", "solve.color", _note_colors),
        (solve, "picard", "solve.picard", _note_picard),
    ]
    for name in ("assemble_K", "assemble_B", "assemble_M", "assemble_G"):
        patches.append((stabilization, name, "assembly.operators", None))

    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in patches]
    saved.append((solve, "spla", solve.spla))
    try:
        for owner, attr, span_name, note in patches:
            setattr(owner, attr,
                    tracer.wrap(getattr(owner, attr), span_name, note))
        solve.spla = _LinalgProxy(
            tracer.wrap(scipy.sparse.linalg.splu, "solve.lu", _note_lu))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
