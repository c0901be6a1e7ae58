"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: :func:`instrument` swaps public
functions and methods of the ``repro`` package for wrappers that open a
span (name, start, end, parent, request id) around each call, and
:meth:`Recorder.restore` puts the originals back.  Spans live in memory;
:meth:`Recorder.write` dumps them as JSON lines when the run ends.

Per span name the recorder keeps the call count, the total duration and
the *self* time — a span's duration minus the time its child spans cover
— plus sums of numeric attributes (batch sizes, solver counters).  Per
*group* (a layer) it keeps the count and time of the outermost spans
only, so nested calls inside one layer are not counted twice.

Generator functions (the subset enumerators) get one span per generator
whose duration is the time spent inside ``next()``, not the wall time
between the first and the last item.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

AttrFn = Callable[..., Dict[str, float]]

#: Raw span records held for :meth:`Recorder.write`; the per-name
#: aggregates always cover every span.
KEEP_SPANS = 200_000


class _Frame:
    __slots__ = ("name", "group", "start", "child", "span_id", "parent_id",
                 "request", "outer", "busy")

    def __init__(self, name, group, start, span_id, parent, request, outer):
        self.name = name
        self.group = group
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.request = request
        self.outer = outer
        self.busy = 0.0


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.by_name: Dict[str, dict] = {}
        self.by_group: Dict[str, List[float]] = {}
        self.records: List[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patches: List[tuple] = []

    # -- span lifecycle ------------------------------------------------- #

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, group: Optional[str] = None,
              request: bool = False) -> _Frame:
        """Open a span on this thread.  ``request=True`` starts a new
        request id that every span below it inherits."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        group = group or name
        if request:
            req = next(self._requests)
        else:
            req = parent.request if parent is not None else None
        outer = all(f.group != group for f in stack)
        frame = _Frame(name, group, self.clock(), next(self._ids), parent,
                       req, outer)
        stack.append(frame)
        return frame

    def end(self, frame: _Frame,
            attrs: Optional[Dict[str, float]] = None) -> float:
        """Close ``frame`` (the innermost open span of this thread);
        returns its duration."""
        now = self.clock()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        dur = now - frame.start
        if stack:
            stack[-1].child += dur
        self._record(frame, dur, now, attrs)
        return dur

    def _aggregate(self, name: str) -> dict:
        """The aggregate of ``name`` (the caller holds the lock)."""
        agg = self.by_name.get(name)
        if agg is None:
            agg = self.by_name[name] = {
                "count": 0, "total": 0.0, "self": 0.0, "attrs": {}}
        return agg

    def _record(self, frame: _Frame, dur: float, now: float,
                attrs: Optional[Dict[str, float]]) -> None:
        with self._lock:
            agg = self._aggregate(frame.name)
            agg["count"] += 1
            agg["total"] += dur
            agg["self"] += dur - frame.child
            if attrs:
                sums = agg["attrs"]
                for k, v in attrs.items():
                    sums[k] = sums.get(k, 0.0) + float(v)
            if frame.outer:
                g = self.by_group.setdefault(frame.group, [0, 0.0])
                g[0] += 1
                g[1] += dur
            if len(self.records) < KEEP_SPANS:
                self.records.append((frame.name, frame.start, now, dur,
                                     frame.span_id, frame.parent_id,
                                     frame.request, attrs or None))
            else:
                self.dropped += 1

    # -- generators ------------------------------------------------------ #

    def _traced_generator(self, name: str, group: str, gen):
        """Re-yield ``gen``; time inside ``next()`` is the span's duration
        and is charged to whichever span is open at each resumption."""
        frame = None
        try:
            while True:
                stack = self._stack()
                if frame is None:
                    frame = self.start(name, group)
                    resumed = frame.start
                else:
                    resumed = self.clock()
                    stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    took = self.clock() - resumed
                    frame.busy += took
                    if stack and stack[-1] is frame:
                        stack.pop()
                    if stack:
                        stack[-1].child += took
                yield item
        finally:
            if frame is not None:
                self._record(frame, frame.busy, self.clock(), None)

    # -- patching --------------------------------------------------------- #

    def wrap(self, fn: Callable, name: str, group: Optional[str] = None,
             attrs: Optional[AttrFn] = None,
             request: bool = False) -> Callable:
        """A span-recording wrapper around ``fn``.  ``attrs(args, kwargs,
        result, duration)`` returns numeric attributes to sum."""
        group = group or name
        recorder = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return recorder._traced_generator(name, group,
                                                  fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder.start(name, group, request)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = None
                if attrs is not None:
                    try:
                        extra = attrs(args, kwargs, result,
                                      recorder.clock() - frame.start)
                    except Exception:  # noqa: BLE001 — never break the call
                        extra = None
                recorder.end(frame, extra)

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with a traced wrapper.  Module functions are also replaced in
        every loaded ``repro`` module that imported them by name."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, **kw)
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [m for key, m in list(sys.modules.items())
                        if key.startswith("repro") and m is not None
                        and m is not owner
                        and getattr(m, attr, None) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def tally(self, name: str) -> None:
        """Count one event under ``name`` without timing it."""
        with self._lock:
            self._aggregate(name)["count"] += 1

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- reporting --------------------------------------------------------- #

    def count(self, name: str) -> int:
        return int(self.by_name.get(name, {}).get("count", 0))

    def total(self, name: str) -> float:
        return float(self.by_name.get(name, {}).get("total", 0.0))

    def self_time(self, name: str) -> float:
        return float(self.by_name.get(name, {}).get("self", 0.0))

    def attr(self, name: str, key: str) -> float:
        return float(self.by_name.get(name, {}).get("attrs", {}).get(key, 0.0))

    def names(self, prefix: str) -> List[str]:
        return sorted(n for n in self.by_name if n.startswith(prefix))

    def group(self, group: str):
        """``(count, seconds)`` of the outermost spans of ``group``."""
        count, total = self.by_group.get(group, (0, 0.0))
        return int(count), float(total)

    @classmethod
    def read_aggregates(cls, path: str) -> "Recorder":
        """A recorder holding the aggregates :meth:`write` saved."""
        with open(path, encoding="utf-8") as fh:
            head = json.loads(fh.readline())
        rec = cls()
        rec.by_name, rec.by_group = head["aggregates"], head["groups"]
        return rec

    def write(self, path: str) -> None:
        """Dump the raw spans (JSON lines) and the aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"aggregates": self.by_name,
                                 "groups": self.by_group,
                                 "dropped": self.dropped}) + "\n")
            for name, start, end, dur, sid, pid, req, attrs in self.records:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "dur": dur,
                    "id": sid, "parent": pid, "request": req,
                    "attrs": attrs}) + "\n")
