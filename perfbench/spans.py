"""In-memory spans around the calls the benchmark makes into each layer.

A span records a name, start and end (``perf_counter`` seconds), the span
that was open when it started (its parent) and the instance or request it
belongs to.  Spans live in flat arrays while the run lasts and are written
out once at the end; self time and per-layer totals are computed from them.

Layers are timed from outside the package: the benchmark wraps the scorer
it hands to ``decode`` (``TracedScorer``), and :func:`patched` swaps the
``prove``, ``decide`` and ``pre_activation`` names that the ``decoder`` and
``service`` modules call for timing wrappers, restoring them on exit.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

from logicdec import decoder as _decoder
from logicdec import service as _service
from logicdec.lm import NgramScorer, Scorer

_now = time.perf_counter


class Tracer:
    """Span recorder.  Single-threaded: the open spans form one stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self._stack: list[int] = []
        self.current_item = -1

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn):
        """``fn`` with each call recorded as a span; ``name`` is a string or
        a function of the call's arguments returning one."""
        def traced(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s`` (duration
        minus the time covered by direct child spans)."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_total = np.bincount(names, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_total[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span once, as arrays in one ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 item=np.frombuffer(self.item, dtype=np.int32))


class TracedSession:
    """Session wrapper whose ``clone`` is timed."""

    __slots__ = ("inner", "_tracer", "_layer")

    def __init__(self, inner, tracer: Tracer, layer: str):
        self.inner = inner
        self._tracer = tracer
        self._layer = layer

    def clone(self) -> "TracedSession":
        with self._tracer.span(f"{self._layer}.clone"):
            inner = self.inner.clone()
        return TracedSession(inner, self._tracer, self._layer)


class TracedScorer(Scorer):
    """Delegating scorer that times ``begin_session``, ``step`` and session
    ``clone``.  The layer is ``lm`` for the n-gram scorer and
    ``transformer`` otherwise."""

    def __init__(self, inner: Scorer, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.vocab_size = inner.vocab_size
        self.supports_attention_hooks = inner.supports_attention_hooks
        self.layer = "lm" if isinstance(inner, NgramScorer) else "transformer"

    def begin_session(self, targets=()):
        with self.tracer.span(f"{self.layer}.begin_session"):
            inner = self.inner.begin_session(targets)
        return TracedSession(inner, self.tracer, self.layer)

    def step(self, session, token, hooks=None):
        with self.tracer.span(f"{self.layer}.step"):
            return self.inner.step(session.inner, token, hooks=hooks)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Time the prover and decision calls made by ``decoder`` and
    ``service`` for the duration of the block."""
    targets = [(_decoder, "prove"), (_decoder, "decide"), (_decoder, "pre_activation"),
               (_service, "prove"), (_service, "decide")]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]
    prove_name = lambda program, rule, domain, ctx: f"prover.prove_{domain.kind}"  # noqa: E731
    try:
        for mod, attr, fn in saved:
            name = prove_name if attr == "prove" else f"decision.{attr}"
            setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
