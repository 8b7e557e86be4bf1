"""Span tracer installed from the benchmark's side of the package boundary.

Each target is a public function (or method) as it is bound in the module that
calls it, for example ``hypball.kernels.F_k`` rather than
``hypball.specfun.F_k``, so the wrapper sees exactly the calls that module
makes. Wrapping is undone by ``uninstall``; nothing in the package changes.

Every call gets a frame on a stack. A frame's self time is its duration minus
the time of the wrapped calls nested in it. Calls to *hot* functions (called
thousands of times per request, such as F_k) are only aggregated; every other
call also leaves a span record (id, name, start, end, parent id, request id,
attributes) that is kept in memory and written out by ``write_spans``.
"""

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "busy", "self_time", "units", "errors")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.units = 0
        self.errors = defaultdict(int)


class Tracer:
    """Collects spans and per-name/per-layer aggregates for one traced cycle."""

    def __init__(self):
        self.spans = []
        self.stats = defaultdict(Stat)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._request = None
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self, targets):
        """targets: iterable of (owner, attribute, name, options). owner is a
        module or class; name is 'layer.function'. options may hold
        hot=True, units=callable(args) -> int (work units of one call),
        attrs=callable(args) -> dict (recorded on the span), and
        marks=str (the wrapper bumps the enclosing frame's mark count, so a
        caller can tell whether it did that kind of work)."""
        for owner, attr, name, options in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, **options))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, hot=False, units=None, attrs=None, marks=False):
        layer = name.split(".", 1)[0]
        stack = self._stack
        stats = self.stats[name]
        tracer = self

        def wrapper(*args, **kwargs):
            # frame: [id, name, layer, start, child_time, marks, attrs]
            tracer._next_id += 1
            frame = [tracer._next_id, name, layer, _clock(), 0.0, 0,
                     attrs(args) if attrs else None]
            stack.append(frame)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                stats.errors[error] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[3]
                stats.calls += 1
                stats.busy += duration
                stats.self_time += duration - frame[4]
                if units is not None:
                    stats.units += units(args)
                tracer.layer_self[layer] += duration - frame[4]
                parent = stack[-1] if stack else None
                if parent is None or parent[2] != layer:
                    tracer.layer_busy[layer] += duration
                if parent is not None:
                    parent[4] += duration
                    if marks:
                        parent[5] += 1
                if not hot:
                    extra = dict(frame[6] or {})
                    extra["marks"] = frame[5]
                    if error:
                        extra["error"] = error
                    tracer.spans.append((frame[0], name, frame[3], end,
                                         parent[0] if parent else None,
                                         tracer._request, extra))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- requests ---------------------------------------------------------

    def request(self, request_id, label):
        """Context manager that opens a 'bench.request' span; spans recorded
        inside carry request_id."""
        return _RequestSpan(self, request_id, label)

    def spans_named(self, name):
        return [s for s in self.spans if s[1] == name]

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, name, start, end, parent, request, extra in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "request": request, **extra}) + "\n")


class _RequestSpan:
    def __init__(self, tracer, request_id, label):
        self.tracer = tracer
        self.request_id = request_id
        self.label = label

    def __enter__(self):
        t = self.tracer
        t._request = self.request_id
        t._next_id += 1
        self.frame = [t._next_id, "bench.request", "bench", _clock(), 0.0, 0, None]
        t._stack.append(self.frame)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = _clock()
        t._stack.pop()
        t.spans.append((self.frame[0], "bench.request", self.frame[3], end, None,
                        self.request_id, {"label": self.label}))
        t._request = None
        return False


class NullTracer:
    """Stand-in used for untraced cycles."""

    def request(self, request_id, label):
        return _NullSpan()


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
