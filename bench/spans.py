"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: (name, start, end, parent),
with times from `time.perf_counter_ns` and `parent` the index of the
enclosing span (-1 at the top). Wrappers are attached by dotted name and
removed again by `detach`; a name that does not resolve is skipped and
reported, so the benchmark keeps running when the program drops or
renames a function. Nothing in the program's files is edited.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable


class Recorder:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.reset()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        # parallel lists of strings and ints, which the cyclic garbage
        # collector does not track, so a long trace does not slow it down
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    @property
    def spans(self) -> list[tuple[str, int, int, int]]:
        """(name, start, end, parent) per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # -- wrapping ------------------------------------------------------

    def _wrap_function(self, original, name, on_return):
        recorder = self

        def traced(*args, **kwargs):
            index = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(index)
            recorder.counts[name + ".calls"] += 1
            if on_return is not None:
                on_return(result, recorder.counts)
            return result

        return traced

    def _wrap_generator(self, original, name):
        """Each step of the generator is one span; a call only counts
        the generator as started, since creating it runs no code."""
        recorder = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            recorder.counts[name + ".calls"] += 1
            try:
                while True:
                    index = recorder.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.end(index)
                    recorder.counts[name + ".yields"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def attach(self, targets: dict[str, tuple[str, Callable | None]]) -> list[str]:
        """Wrap each target, given as {"pkg.module:Qual.name": (span name,
        on_return or None)}; on_return(result, counts) may add counts
        from a call's result. Returns the targets that did not resolve."""
        skipped = []
        for target, (name, on_return) in targets.items():
            module_name, _, qualname = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                skipped.append(target)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            raw = None if owner is None else inspect.getattr_static(owner, attr, None)
            if not inspect.isfunction(raw):
                skipped.append(target)
                continue
            if inspect.isgeneratorfunction(raw):
                wrapper = self._wrap_generator(raw, name)
            else:
                wrapper = self._wrap_function(raw, name, on_return)
            self._replace(owner, attr, raw, wrapper)
            if inspect.ismodule(owner):
                # `from .mod import fn` leaves other aliases of fn behind
                package = module_name.split(".")[0]
                for other_name, other in list(sys.modules.items()):
                    if other is owner or other is None:
                        continue
                    if other_name != package and not other_name.startswith(package + "."):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._replace(other, key, raw, wrapper)
        return skipped

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def detach(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the part of it its children cover.
        Children are clipped to the parent and merged where they
        overlap, so the result is never negative."""
        kids: list[list[int]] = [[] for _ in self.names]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(index)
        result = []
        for index, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0
            reach = start
            for lo, hi in sorted((self.starts[c], self.ends[c]) for c in kids[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(end - start - covered)
        return result

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: inclusive time (spans nested in a span of the
        same name are not counted twice), self time and span count."""
        own = self.self_times()
        out: dict[str, dict[str, int]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"total_ns": 0, "self_ns": 0, "spans": 0})
            entry["self_ns"] += own[index]
            entry["spans"] += 1
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                entry["total_ns"] += end - start
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line:
        index, parent, name, start_ns, end_ns."""
        with open(path, "w") as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\n")
