"""Atomic file replacement for every output the package writes.

:func:`atomic_write` hands out a handle on a temporary file beside the
target and renames it over the target once the block completes, so an
interrupted or failed write leaves the previous file intact and no
temporary file behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs):
    """Open a temporary file beside ``path`` for writing (``open``'s
    ``mode`` and keyword arguments); on leaving the block without an
    exception it replaces ``path``, on any exception it is removed.  A
    failed replacement raises an ``OSError`` that names ``path`` alone."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **open_kwargs) as handle:
            yield handle
        try:
            os.replace(temporary, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
