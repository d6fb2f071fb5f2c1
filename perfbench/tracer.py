"""Span tracer for one `strongpow` command, run from outside the library.

Usage: python3 perfbench/tracer.py SPANS_PATH STRONGPOW_ARGS...

The tracer wraps every public function of every `strongpow` module, plus
`Graph.__post_init__` and the `VerifyReport` formatters, at every module
attribute that refers to it: `from .permanents import permanent_ryser`
binds the same function as `strongpow.verify.permanent_ryser` and
`strongpow.cli.permanent_ryser`, and all of those names are patched. It
then runs `strongpow.cli.main(args)` and, when the process exits, writes
the spans it kept in memory to SPANS_PATH as JSON.

A span is [id, name, parent id, thread id, start, end, thread cpu seconds,
exception type or null, key or null]. The key is the hash of the matrix
passed to `permanent_ryser`, so duplicated permanents can be counted.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

MODULES = ("groups", "graphs", "spectral", "permanents", "structure", "verify", "cli")
METHODS = (
    ("graphs", "Graph", "__post_init__"),
    ("verify", "VerifyReport", "to_tsv"),
    ("verify", "VerifyReport", "to_json"),
)
KEYED = {"permanents.permanent_ryser"}


class Tracer:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return a function that behaves like `fn` and records one span per call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        main_stack = self._main_stack
        perf, cpu = time.perf_counter, time.thread_time
        keyed = name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            # A pool thread's first span belongs to whatever the main thread
            # is inside, which is the call that started the pool.
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            key = hash(args[0]) if keyed and args else None
            sid = next(ids)
            stack.append(sid)
            exc = None
            c0 = cpu()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = type(e).__name__
                raise
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                spans.append(
                    (sid, name, parent, threading.get_ident(), t0, t1, c1 - c0, exc, key)
                )

        return traced

    def install(self) -> None:
        """Patch every public strongpow function at every module name bound to it."""
        import importlib

        mods = {m: importlib.import_module(f"strongpow.{m}") for m in MODULES}
        package = importlib.import_module("strongpow")
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from strongpow.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
