"""Shared plumbing: logging setup and a deterministic parallel map."""

import logging
import os
from concurrent.futures import ThreadPoolExecutor

_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

log = logging.getLogger("bdrelax")


def configure_logging(level: str | None = None) -> None:
    """Set the package log level from the argument or BDRELAX_LOG."""
    name = (level or os.environ.get("BDRELAX_LOG", "error")).lower()
    if name not in _LEVELS:
        raise ValueError(f"unknown log level {name!r}; expected one of {sorted(_LEVELS)}")
    if not log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
    log.setLevel(_LEVELS[name])


def pmap(fn, items, jobs: int | None = None) -> list:
    """Map fn over items, preserving input order in the result.

    Workers are threads, which run in parallel only inside numpy calls that
    release the GIL. The Q1 kernel makes many short numpy calls per energy
    evaluation, so at small meshes the Python between them holds the GIL
    and a second worker can make a multistart solve slower, not faster.
    The reduction order is the input order, so results are deterministic
    regardless of the worker count.
    """
    items = list(items)
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(items) or 1))
    if jobs == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
