"""Structured JSON logging: one object per line, bound context fields.

The stdlib :mod:`logging` module is deliberately bypassed — its
global handler state leaks across the forked worker processes in
:mod:`repro.live.workers`, and the toolkit's contract is machine
readable stderr: every record is a single JSON object with ``ts``,
``level``, ``logger``, ``msg`` plus whatever context fields the
logger was bound with (``run``, ``worker``, ``role``, ...).

Default level is ``warning`` so routine runs stay quiet while worker
crash records always surface; ``REPRO_LOG_LEVEL=debug|info|warning|
error`` (or :func:`configure`) widens it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, IO, Optional

__all__ = ["JsonLogger", "configure", "get_logger", "LEVELS"]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_state: Dict[str, Any] = {"stream": None, "level": None}


def _threshold() -> int:
    if _state["level"] is not None:
        return _state["level"]
    env = os.environ.get("REPRO_LOG_LEVEL", "").strip().lower()
    return LEVELS.get(env, LEVELS["warning"])


def configure(
    stream: Optional[IO[str]] = None, level: Optional[str] = None
) -> None:
    """Set the process-wide log sink and threshold.

    *stream* defaults to stderr (resolved at emit time so pytest's
    capsys and pipe redirections keep working); *level* is one of
    ``debug``/``info``/``warning``/``error`` and overrides the
    ``REPRO_LOG_LEVEL`` environment variable.
    """
    if stream is not None:
        _state["stream"] = stream
    if level is not None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        _state["level"] = LEVELS[level]


class JsonLogger:
    """A named logger carrying bound context fields.

    ``bind(**fields)`` returns a child logger whose records include
    the parent's fields plus the new ones — how run/worker/request
    context threads through the serving layers without global state.
    """

    __slots__ = ("name", "_context")

    def __init__(self, name: str, context: Optional[Dict[str, Any]] = None):
        self.name = name
        self._context = dict(context or {})

    def bind(self, **fields: Any) -> "JsonLogger":
        merged = dict(self._context)
        merged.update(fields)
        return JsonLogger(self.name, merged)

    def _emit(self, level: str, msg: str, fields: Dict[str, Any]) -> None:
        if LEVELS[level] < _threshold():
            return
        record: Dict[str, Any] = {
            "ts": round(time.time(), 3),
            "level": level,
            "logger": self.name,
            "msg": msg,
        }
        record.update(self._context)
        record.update(fields)
        stream = _state["stream"] or sys.stderr
        try:
            stream.write(json.dumps(record, default=str) + "\n")
            stream.flush()
        except (ValueError, OSError):
            # A closed stderr (interpreter teardown, broken pipe) must
            # never take the serving path down with it.
            pass

    def info(self, msg: str, **fields: Any) -> None:
        self._emit("info", msg, fields)

    def warning(self, msg: str, **fields: Any) -> None:
        self._emit("warning", msg, fields)

    def error(self, msg: str, **fields: Any) -> None:
        self._emit("error", msg, fields)


def get_logger(name: str, **context: Any) -> JsonLogger:
    """Return a :class:`JsonLogger` bound with *context* fields."""
    return JsonLogger(name, context)
