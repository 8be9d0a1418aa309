"""Shared plumbing: logging setup and an order-preserving map."""

import logging
import os
import sys

_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

log = logging.getLogger("bdrelax")
_handler = logging.StreamHandler()
_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def configure_logging(level: str | None = None) -> None:
    """Set the package log level from the argument or BDRELAX_LOG; log to the current sys.stderr."""
    name = (level or os.environ.get("BDRELAX_LOG", "error")).lower()
    if name not in _LEVELS:
        raise ValueError(f"unknown log level {name!r}; expected one of {sorted(_LEVELS)}")
    _handler.stream = sys.stderr  # not setStream, which flushes a stream that may be closed
    if _handler not in log.handlers:
        log.addHandler(_handler)
    log.setLevel(_LEVELS[name])


def pmap(fn, items, jobs: int = 1) -> list:
    """Map fn over items in order; `jobs` has no effect.

    Unused by the package, whose multistarts run in lockstep on one thread;
    kept while the benchmark's tracer (perfbench/spans.py) names it.
    """
    return [fn(x) for x in items]
