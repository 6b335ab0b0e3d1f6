"""The span context: the tree of :class:`Span`\\ s a traced request
records, and the one :mod:`contextvars` variable naming the span the
running code is inside.  :func:`span` opens a child there, or yields
None when nothing is traced.

Like :mod:`repro.counters` this module imports nothing from the
package, so every layer opens spans with one import; the service's
:class:`~repro.service.trace.Tracer` installs each request's root and
keeps the finished trees.  A pool thread runs whatever context it last
had, so work handed to an executor runs through
``contextvars.copy_context().run``, which carries the caller's span.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
import uuid
from typing import Any, Iterator, Mapping

__all__ = [
    "Span",
    "current_root",
    "current_span",
    "install",
    "new_trace_id",
    "release",
    "span",
]

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "staccato_current_span", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-digit id (trace ids and cross-process span ids)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation inside a request; children are sub-steps.

    Durations come from ``perf_counter``; the wall-clock start is kept
    on the root only (via the trace record).  ``children.append`` from
    concurrent fan-out legs is safe (list.append is atomic under the
    GIL); the tree is only serialized after every leg has joined.
    """

    __slots__ = (
        "name",
        "attrs",
        "parent",
        "trace_id",
        "error",
        "children",
        "grafts",
        "duration_s",
        "_t0",
        "_token",
        "_span_id",
    )

    def __init__(self, name: str, parent: "Span | None" = None, **attrs: Any):
        self.name = name
        self.attrs = dict(attrs)
        self.parent = parent
        self.trace_id: str | None = None
        self.error = False
        self.children: list[Span] = []
        self.grafts: list[dict[str, Any]] = []
        self.duration_s: float | None = None
        self._t0 = time.perf_counter()
        self._token: contextvars.Token | None = None
        self._span_id: str | None = None

    @property
    def span_id(self) -> str:
        """A stable id for this span, minted on first use.

        Only spans that cross a process boundary ever need one, so it
        is lazy -- the common single-process span pays nothing.
        """
        if self._span_id is None:
            self._span_id = new_trace_id()
        return self._span_id

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value detail (postings fetched, plan label, ...)."""
        self.attrs.update(attrs)

    def graft(self, subtree: Mapping[str, Any], **attrs: Any) -> None:
        """Adopt a span subtree serialized by another process.

        The subtree is the remote root's ``to_dict`` output, kept as-is
        (its ``start_ms`` offsets are relative to the *remote* root --
        two processes share no clock) and emitted among this span's
        children at serialization time.  ``attrs`` annotate the remote
        root (worker index, pid) and a ``remote`` marker distinguishes
        grafted nodes from locally timed ones.  ``list.append`` is
        atomic under the GIL, so concurrent fan-out legs may graft onto
        a shared parent just like they append child spans.
        """
        node = dict(subtree)
        node["attrs"] = {
            **node.get("attrs", {}),
            **attrs,
            "remote": True,
        }
        self.grafts.append(node)

    def finish(self) -> None:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0

    @property
    def elapsed_s(self) -> float:
        """Final duration, or time-so-far for a still-open span."""
        if self.duration_s is not None:
            return self.duration_s
        return time.perf_counter() - self._t0

    def to_dict(self, base: float | None = None) -> dict[str, Any]:
        """The JSON span tree; offsets are relative to ``base`` (root)."""
        base = self._t0 if base is None else base
        node: dict[str, Any] = {
            "name": self.name,
            "start_ms": round((self._t0 - base) * 1000.0, 3),
            "duration_ms": round(self.elapsed_s * 1000.0, 3),
        }
        if self.error:
            node["error"] = True
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children or self.grafts:
            node["children"] = [
                c.to_dict(base) for c in self.children
            ] + list(self.grafts)
        return node


def current_span() -> Span | None:
    """The span this thread/task is currently inside (or None)."""
    return _CURRENT.get()


def current_root() -> Span | None:
    """The root of the current request's span tree (or None)."""
    node = _CURRENT.get()
    while node is not None and node.parent is not None:
        node = node.parent
    return node


@contextlib.contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Open a child span under the current one; a no-op when untraced.

    Yields the new :class:`Span` (for :meth:`Span.annotate`) or None
    when the request is not being traced.
    """
    parent = _CURRENT.get()
    if parent is None:
        yield None
        return
    child = Span(name, parent=parent, **attrs)
    parent.children.append(child)
    token = _CURRENT.set(child)
    try:
        yield child
    except BaseException:
        child.error = True
        raise
    finally:
        child.finish()
        _CURRENT.reset(token)


def install(root: Span) -> None:
    """Make ``root`` (a request's root span) the current span."""
    root._token = _CURRENT.set(root)


def release(root: Span) -> None:
    """Undo :func:`install`; a no-op for a root already released."""
    if root._token is not None:
        try:
            _CURRENT.reset(root._token)
        except ValueError:  # reset from a different context: best effort
            _CURRENT.set(None)
        root._token = None
