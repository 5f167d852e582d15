"""In-memory spans around the program's public functions.

A :class:`Recorder` wraps functions and methods of the program from the
outside: every call through a wrapper records one span
``(id, name, start, end, parent, op, lane)`` into an in-memory list.
The span name *is* the layer name. ``parent`` is the enclosing span on
the same thread, ``op`` the root span (one benchmark operation) the
call belongs to, and ``lane`` the thread that made it.

:meth:`Recorder.patch_function` replaces a function under *every* name
it is bound to in the program's loaded modules, because modules import
functions by name (``planner`` and ``service.state`` each hold their
own ``simulate_iteration``); patching only the defining module would
miss those call sites.

Self time is a span's duration minus the part of it that its direct
children cover. :func:`summarize` rolls self time and call counts up
per layer and reconciles them with the lanes' wall time: the layers'
self times plus the lane time no operation covered equal the lanes'
wall only when every child lies inside its parent, siblings do not
overlap, operations on one lane do not overlap, and every span belongs
to a lane's operation. Whatever breaks that (a server handler span that
outlasts its client span, a span recorded twice, a span that escaped
its operation) shows up as the residual.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (id, name, start, end, parent id, op id, lane)
Span = Tuple[int, str, float, float, int, int, int]

#: Hook run after a wrapped call: (result, args, kwargs, span id).
After = Callable[[Any, tuple, dict, int], None]

_perf = time.perf_counter


class Recorder:
    """Collects spans from wrapped calls; undoes its patches on ``restore``.

    A root span is its own operation unless :meth:`force_op` named one;
    with ``own_ops=False`` (a server, whose operations are its clients')
    a root without a forced op belongs to no operation (op 0).
    """

    def __init__(self, own_ops: bool = True) -> None:
        self.own_ops = own_ops
        self.spans: List[Span] = []
        self.enabled = True
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []
        # Forked workers inherit the patched functions; their spans could
        # never reach this list, so the wrappers go quiet there.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.op = 0
            self._tls.forced_op = 0
        return stack

    # ------------------------------------------------------------ spans
    def begin(self, name: str) -> Tuple[int, str, float, int]:
        """Open a span by hand; close it with :meth:`end`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        if not stack:
            self._tls.op = self._tls.forced_op or (sid if self.own_ops else 0)
        stack.append(sid)
        return sid, name, _perf(), parent

    def end(self, token: Tuple[int, str, float, int]) -> None:
        t1 = _perf()
        sid, name, t0, parent = token
        self._stack().pop()
        self.spans.append(
            (sid, name, t0, t1, parent, self._tls.op, threading.get_ident())
        )

    def force_op(self, op: int) -> None:
        """Tag the next root span on this thread (and its children) with *op*."""
        self._stack()
        self._tls.forced_op = op

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[After] = None,
    ) -> Callable[..., Any]:
        """*fn* recording one *name* span per call.

        *after* runs outside the span with ``(result, args, kwargs,
        span id)`` and may update counts.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            token = rec.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end(token)
            if after is not None:
                after(out, args, kwargs, token[0])
            return out

        return wrapper

    # ---------------------------------------------------------- patches
    def patch_function(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[After] = None,
    ) -> int:
        """Wrap *fn* at every module-level binding in ``repro.*``.

        Returns how many bindings were replaced (at least one, or the
        function is not reachable and the layer would go unseen).
        """
        wrapper = self.wrap(name, fn, after)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))
                    hits += 1
        if not hits:
            raise RuntimeError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")
        return hits

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        after: Optional[After] = None,
    ) -> None:
        """Wrap ``cls.attr`` (looked up on the class by every instance)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        """Put every patched binding back."""
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)
        self.enabled = False


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
@dataclass
class Lane:
    """One thread of operations and the wall interval it was timed over."""

    lane: int
    start: float
    end: float

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Summary:
    """Per-layer self time and calls, plus the lane reconciliation."""

    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    untraced_s: float = 0.0
    spans: int = 0

    @property
    def residual_frac(self) -> float:
        """(layers + untraced - wall) / wall; 0 when the books balance.

        Self time and untraced time count covered intervals, not summed
        durations, so the residual is the time spans claim twice or
        outside their parent or lane; it is never negative.
        """
        if self.wall_s <= 0:
            return 0.0
        total = sum(self.self_s.values()) + self.untraced_s
        return (total - self.wall_s) / self.wall_s

    def layer(self, name: str) -> Tuple[int, float]:
        return self.calls.get(name, 0), self.self_s.get(name, 0.0)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return total + cur_hi - cur_lo


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, t0, t1, parent, _, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    return {
        s[0]: (s[3] - s[2]) - covered(children.get(s[0], ()), s[2], s[3]) for s in spans
    }


def summarize(spans: List[Span], lanes: List[Lane]) -> Summary:
    """Roll *spans* up per layer and reconcile against *lanes*.

    A lane's untraced time is its wall minus the part its root spans
    cover. Spans on threads that are not lanes (a server's handler
    threads) belong to layers through the lane operation they nest in;
    a span that nests in no lane operation still counts toward its
    layer, and so shows up in the residual.
    """
    out = Summary(spans=len(spans))
    own = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s[1]] += own[s[0]]
        calls[s[1]] += 1
    out.self_s = dict(self_s)
    out.calls = dict(calls)
    roots: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, t0, t1, parent, _, lane in spans:
        if parent == 0:
            roots[lane].append((t0, t1))
    out.wall_s = sum(ln.wall for ln in lanes)
    out.untraced_s = sum(ln.wall - covered(roots[ln.lane], ln.start, ln.end) for ln in lanes)
    return out


def write_spans(path: Path, spans: List[Span], meta: Dict[str, Any]) -> None:
    """Write spans as one JSON document (written once, at the end)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "meta": meta,
        "fields": ["id", "name", "start", "end", "parent", "op", "lane"],
        "spans": spans,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def read_spans(path: Path) -> Tuple[List[Span], Dict[str, Any]]:
    """``(spans, meta)`` as :func:`write_spans` wrote them."""
    doc = json.loads(path.read_text())
    return [tuple(s) for s in doc["spans"]], doc["meta"]  # type: ignore[misc]
