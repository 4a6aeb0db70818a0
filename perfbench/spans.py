"""Span recorder that times palinradix's layers from outside.

`SpanRecorder.install` swaps each traced public name for a wrapper in every
loaded palinradix module that binds it (modules import each other's names,
so `theorems.min_pal_base` is a separate binding of `palindrome.min_pal_base`)
and puts the originals back on exit.  A span is (name, start, end, parent,
attrs); spans stay in memory until the benchmark writes them out.  Work done
inside pool worker processes is not traced.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, public name) pairs wrapped as spans.
TRACED = (
    ("cli", "main"),
    ("tables", "render"),
    ("theorems", "check_conjectures"),
    ("palindrome", "pow2_complete_scan"),
    ("palindrome", "enumerate_palindromes"),
    ("palindrome", "min_pal_base"),
    ("palindrome", "make_record"),
    ("binomial", "classify_binomial"),
    ("numtheory", "divisors"),
    ("numtheory", "factorize"),
    ("radix", "to_digits"),
)
# Modules whose `Pool` name is replaced by a timed proxy.
POOL_MODULES = ("theorems", "palindrome")


def _attrs(name, args, result):
    """Cheap facts kept per span; derived counts are computed afterwards."""
    if name == "palindrome.enumerate_palindromes":
        lo, hi = result.base_range
        return {"n": result.target, "lo": lo, "hi": hi, "hits": len(result.records)}
    if name == "palindrome.min_pal_base":
        return {"n": args[0], "b": result[0]}
    return None


class SpanRecorder:
    def __init__(self, package: str = "palinradix") -> None:
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec[4] = _attrs(name, args, result)
            return result

        return wrapper

    def _pool(self, name: str, pool_cls):
        recorder = self

        class TracedPool:
            def __init__(self, *args, **kwargs):
                with recorder.span(f"{name}.Pool"):
                    self._pool = pool_cls(*args, **kwargs)

            def map(self, *args, **kwargs):
                with recorder.span(f"{name}.Pool.map"):
                    return self._pool.map(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                with recorder.span(f"{name}.Pool"):
                    return self._pool.__exit__(*exc)

        return TracedPool

    @contextlib.contextmanager
    def install(self):
        """Wrap every traced name for the duration of the block."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]
        swaps = []
        for mod_name, attr in TRACED:
            orig = getattr(sys.modules[f"{self.package}.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        swaps.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name in POOL_MODULES:
            mod = sys.modules[f"{self.package}.{mod_name}"]
            swaps.append((mod, "Pool", mod.Pool))
            mod.Pool = self._pool(mod_name, mod.Pool)
        try:
            yield self
        finally:
            for mod, key, orig in reversed(swaps):
                setattr(mod, key, orig)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}
            for name, start, end, parent, attrs in self.spans
        ]
