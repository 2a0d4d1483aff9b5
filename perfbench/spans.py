"""In-memory spans around calls into the library, and per-layer statistics.

A :class:`Recorder` replaces named attributes of the library's modules and
classes with wrappers that record one span per call: name, start, end, the
enclosing span and the current trial id, plus optional counters computed
from the call's arguments and result.  Nothing inside the library changes;
the wrappers sit on the names through which the library calls itself.
Spans stay in memory until :func:`write_spans` is called once, at the end.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time

# span record fields
NAME, START, END, PARENT, TRIAL, COUNTS, ERROR = range(7)


class Recorder:
    """Collects spans from wrapped callables; serial use only."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.trial = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A wrapper of ``fn`` that records a span named ``name`` per call.

        ``count(args, kwargs, result)`` returns a dict of counters for a call
        that returned; a call that raised records the exception's type name.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if count is not None:
                try:
                    rec[COUNTS] = count(args, kwargs, result)
                except Exception:
                    # a changed signature costs the counters, not the run
                    if f"{name} counters" not in self.missing:
                        self.missing.append(f"{name} counters")
            return result

        return wrapper


def _resolve(module: str, path: str):
    """(owner, attribute) for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block.

    The original is read from ``owner``'s own namespace, so that restoring a
    class attribute puts back exactly what was there (a plain function); an
    inherited or absent attribute raises ``KeyError`` before anything changes.
    """
    original = vars(owner)[attr]
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def installed(recorder: Recorder, targets):
    """Wrap every target for the duration of the block, then restore them.

    ``targets`` holds ``(module, dotted_path, span_name, count)`` tuples.  A
    target that no longer exists is appended to ``recorder.missing`` and
    skipped, so a renamed library function does not stop the run.
    """
    with contextlib.ExitStack() as stack:
        for module, path, name, count in targets:
            try:
                owner, attr = _resolve(module, path)
                stack.enter_context(patched(
                    owner, attr, functools.partial(recorder.wrap, name, count=count)))
            except (ImportError, AttributeError, KeyError):
                recorder.missing.append(f"{module}.{path}")
        yield recorder


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(idx)
    out = []
    for rec, kids in zip(spans, children):
        start, end = rec[START], rec[END]
        covered = 0.0
        cursor = start
        for k in sorted(kids, key=lambda i: spans[i][START]):
            lo = max(spans[k][START], cursor)
            hi = min(spans[k][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_stats(spans) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s, errors and summed counters.

    ``busy_s`` counts only spans with no enclosing span of the same name, so
    a recursive call is not counted twice.
    """
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for idx, rec in enumerate(spans):
        st = stats.setdefault(
            rec[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": {}}
        )
        st["calls"] += 1
        st["self_s"] += selfs[idx]
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] != rec[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            st["busy_s"] += rec[END] - rec[START]
        if rec[ERROR] is not None:
            st["errors"][rec[ERROR]] = st["errors"].get(rec[ERROR], 0) + 1
        for key, value in (rec[COUNTS] or {}).items():
            st[key] = st.get(key, 0) + value
    return stats


def write_spans(spans, path) -> None:
    """Write every span as one CSV row (times in seconds from the first span)."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "trial", "name", "start_s", "end_s", "error"])
        for idx, rec in enumerate(spans):
            out.writerow([
                idx, rec[PARENT], rec[TRIAL], rec[NAME],
                f"{rec[START] - origin:.9f}", f"{rec[END] - origin:.9f}",
                rec[ERROR] or "",
            ])
