"""Spans around the calls into a package's public functions.

The tracer replaces each target function by a wrapper in *every* loaded
module of the package that holds it, so a name imported with
``from .resize import bilinear_resize`` is traced in the importing module
too, and calls between functions of one module (which go through that
module's globals) are seen as well. A target that does not exist is
recorded as missing with a reason instead of failing the run.

Spans are kept in memory as ``[name, parent index, start, end, extra]``
lists; one single-threaded run nests them strictly, so a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: dict[str, str] = {}
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, extra=None):
        """A wrapper recording one span per call; `extra(args, kwargs, result)`
        runs after the span ends and its value is stored with the span
        (None when it cannot be worked out from the call)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if extra is not None:
                try:
                    rec[4] = extra(args, kwargs, result)
                except (AttributeError, IndexError, OSError, TypeError, ValueError):
                    pass  # a changed signature leaves the extra unmeasured
            return result

        return traced

    def install(self, package: str, targets: dict, extras: dict | None = None) -> None:
        """Trace `package.<module>.<function>` for every module -> functions entry.

        Span names are ``"<module>.<function>"``; `extras` maps span names
        to functions whose result is stored with each span.
        """
        extras = extras or {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, funcs in targets.items():
            home = sys.modules.get(f"{package}.{mod_name}")
            for fname in funcs:
                key = f"{mod_name}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    self.missing[key] = f"{package}.{key} not found"
                    continue
                wrapper = self.wrap(key, original, extras.get(key))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextmanager
    def paused(self):
        """Calls inside the block record no spans (used for output checks)."""
        before, self.active = self.active, False
        try:
            yield
        finally:
            self.active = before

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called `name`, from span index `since` on."""
        return [s[3] - s[2] for s in self.spans[since:] if s[0] == name]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds."""
    agg: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        entry = agg.setdefault(s[0], {"count": 0, "s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["s"] += s[3] - s[2]
        entry["self_s"] += self_s
    return agg
