"""In-memory span recorder for traced runs.

A Tracer is called like the plain `call(name, fn, *args)` of workloads.py and
records one span per call into a layer: name, start, end, parent span and the
program it belongs to, plus the step and byte counts of that call. Spans stay
in memory until `write` at the end of the run.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    pid: int | None = None
    counts: dict[str, int] = field(default_factory=dict)
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, kw: dict, out) -> dict[str, int]:
    """Work done by one layer call, read off its arguments and result."""
    if name == "parser.parse_program":
        return {"bytes": len(args[0].encode("utf-8"))}
    if name == "typecheck.check_program":
        return {"defs": len(out.def_types)}
    if name == "machine.eval_rec":
        return {"steps": len(out[1].steps)}
    if name == "machine.to_jsonl":
        return {"bytes": len(out.encode("utf-8")) + 1}
    if name.startswith("metatheory.") and isinstance(out, list):
        return {"violations": len(out)}
    if name in ("metatheory.equational", "metatheory.algebra"):
        return {"cases": out.cases, "violations": len(out.failures)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, pid: int | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if pid is None and parent is not None:
            pid = parent.pid
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent.sid if parent else None, pid=pid)
        self.spans.append(span)
        return span

    @contextmanager
    def scope(self, name: str, pid: int | None = None):
        """A span of the benchmark's own, enclosing layer calls."""
        span = self._open(name, pid)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def __call__(self, name, fn, *args, **kw):
        span = self._open(name, None)
        try:
            out = fn(*args, **kw)
        except Exception as e:
            span.error = type(e).__name__
            raise
        finally:
            span.end = time.perf_counter()
        span.counts = _counts(name, args, kw, out)
        return out

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        own = {s.sid: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def growth(full: float, half: float) -> float:
    """log2 of a layer's time ratio when its input size doubles."""
    return math.log2(full / half) if full > 0 and half > 0 else float("nan")
