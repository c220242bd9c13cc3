"""Outside-in span tracer.

Spans are recorded around calls into conewave's public functions and
methods, by replacing the name where the caller looks it up (a module
global such as ``conewave.harness.solve_march``, or a class attribute such
as ``ConvolutionKernel.apply``).  Nothing inside ``src/`` changes.  Spans
stay in memory (name, start, end, parent) until the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a traced version recording span ``name``.

        ``before(args)`` sees the call's positional arguments and
        ``after(result)`` its return value; neither is inside the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def aggregate(self) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s", "durations"}.

        No traced name calls itself, so inclusive time is the plain sum.
        """
        agg: dict = {}
        for name, s, e, own in zip(self.names, self.start, self.end, self.self_times()):
            a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            a["calls"] += 1
            a["s"] += e - s
            a["self_s"] += own
            a["durations"].append(e - s)
        return agg

    def dump(self, path) -> None:
        """Write every span as [name, start_s, end_s, parent_index]."""
        t0 = self.start[0] if self.start else 0.0
        rows = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
