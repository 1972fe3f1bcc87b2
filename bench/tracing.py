"""In-memory spans around the public functions of the rulefuzz layers.

A Tracer replaces each traced function with a wrapper that records one
span per call: (span id, parent span id, name, start, end, size).  The
parent is the innermost traced call still open on the same thread, so a
learn() made by cross-validation is a child of progress().  `size` is
the length of the call's LabeledDataset argument, where it has one.

The wrapper is installed in every loaded rulefuzz module that holds the
original object, so calls through `from .x import f` aliases are seen
too.  Nothing in the program is edited on disk; uninstall() puts every
original back.  A target that a later version of the program no longer
has is skipped, and its metrics read 0.
"""
from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    size: int | None


# (module, attribute path) of each traced callable; a dotted path names
# a method on a class.  The span name is "<module>.<last path part>".
FUNCTIONS = (
    ("codec", "encode"),
    ("codec", "decode_as"),
    ("sut", "connect_sut"),
    ("sut", "run_procedure_on"),
    ("sut", "MockController.stop"),
    ("proxy", "InterceptProxy.stop"),
    ("fuzzer", "apply_plan"),
    ("fuzzer", "make_initial_plan"),
    ("fuzzer", "make_guided_plan"),
    ("sampler", "solve"),
    ("sampler", "solve_avoiding"),
    ("planner", "plan"),
    ("planner", "progress"),
    ("learner", "learn"),
    ("learner", "predict_mask"),
    ("dataset", "LabeledDataset.to_arrays"),
    ("dataset", "LabeledDataset.subset"),
    ("dataset", "LabeledDataset.append_csv"),
    ("orchestrator", "build_iteration_plans"),
)

# Names whose span records the size of their dataset argument.
_SIZED = {"learner.learn", "planner.progress"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.threads_peak = threading.active_count()
        self.reserve_waits: list[float] = []
        self.stopped_proxies: list[object] = []
        self.window = (0.0, 0.0)  # start and end of the traced unit
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sized = name in _SIZED

        def traced(*args, **kwargs):
            active = threading.active_count()
            if active > self.threads_peak:
                self.threads_peak = active
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            size = None
            if sized:
                data = args[0] if args else kwargs.get("dataset")
                size = len(data)
            if name == "proxy.stop":
                self.stopped_proxies.append(args[0])
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end, size))

        return traced

    def _wrap_reserve(self, fn: Callable) -> Callable:
        """Time from calling InterceptProxy.reserve to entering its block."""

        @contextlib.contextmanager
        def reserve(proxy, hook):
            start = time.perf_counter()
            with fn(proxy, hook) as endpoint:
                self.reserve_waits.append(time.perf_counter() - start)
                yield endpoint

        return reserve

    # -- installing ----------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        loaded = [
            m for n, m in list(sys.modules.items())
            if n == "rulefuzz" or n.startswith("rulefuzz.")
        ]
        for module_name, path in FUNCTIONS:
            module = sys.modules.get(f"rulefuzz.{module_name}")
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        proxy = sys.modules.get("rulefuzz.proxy")
        cls = getattr(proxy, "InterceptProxy", None)
        if cls is not None and hasattr(cls, "reserve"):
            self._set(cls, "reserve", self._wrap_reserve(cls.reserve))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def top_level(self, name: str) -> list[Span]:
        """Spans of `name` not nested in another traced call."""
        return sorted(
            (s for s in self.spans if s.name == name and s.parent is None),
            key=lambda s: s.start,
        )
