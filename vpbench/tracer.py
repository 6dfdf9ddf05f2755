"""In-memory spans and counters for the traced benchmark run.

The recorder wraps public functions of the ``vpwave`` modules from the
outside: it replaces a module attribute by a wrapper in every loaded
``vpwave`` module that holds the same object (``mra`` imports names from
``dlvp`` by value), and puts the originals back on :meth:`Recorder.uninstall`.
Nothing inside the package changes.

A span is ``{id, parent, name, start, end, ...attrs}`` with times from
``time.perf_counter``; spans of one sample process share the process and
are written out by the parent when the run ends.  Hot functions get a
call counter and accumulated seconds instead of one span per call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    # -- wrapping module attributes ------------------------------------------

    def trace_spans(self, module, attr: str, name: str, on_result=None) -> None:
        """One span per call; the level is recorded when the second
        positional argument is an int (``f(chain, level, ...)``)."""
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = {"level": args[1]} if len(args) > 1 and isinstance(args[1], int) else {}
            with self.span(name, **attrs):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(original, wrapper)

    def trace_calls(self, owner, attr: str, name: str, timed: bool = False) -> None:
        """Count calls (and, if ``timed``, their seconds) without spans.
        ``owner`` is a module or a class whose attribute is replaced."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter

        if timed:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                t = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    seconds[name] += clock() - t
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
        else:
            self._replace(original, wrapper)

    def _replace(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vpwave" or mod_name.startswith("vpwave.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived numbers -----------------------------------------------------

    def durations(self, name: str, measure, self_time: bool = False) -> float:
        """Summed duration of the spans called ``name``, each interval
        converted to seconds by ``measure(start, end)``; with ``self_time``
        the part of each span that its child spans do not cover."""
        child = defaultdict(float)
        if self_time:
            for s in self.spans:
                if s["parent"] is not None:
                    child[s["parent"]] += measure(s["start"], s["end"])
        return sum(measure(s["start"], s["end"]) - child[s["id"]]
                   for s in self.spans if s["name"] == name)
