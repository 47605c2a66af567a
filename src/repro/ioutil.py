"""Crash-safe file writing shared by index and graph persistence.

:func:`atomic_write` implements the classic tmp + flush + fsync +
``os.replace`` protocol: the bytes of a new file only ever become
visible at the final path *after* they are durably on disk, so a crash
at any instant leaves either the old file or the new file — never a
torn hybrid.  A stray ``<path>.tmp.<pid>.<n>`` file may survive a
crash; it is never read by any loader and is overwritten or ignored.

The three :class:`~repro.faults.points.FaultPoint` parameters wire the
protocol into :mod:`repro.faults`: the write stream itself (torn-write
truncation), the pre-fsync gap, and the pre-rename gap.  When no fault
schedule is active all three reduce to a ``None`` check.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from typing import IO, Any, Iterator, cast

from repro import faults
from repro.faults.points import FaultPoint

__all__ = ["atomic_write"]

# Distinguishes tmp files of concurrent writers in the same process.
_TMP_COUNTER = itertools.count()


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of ``path``'s directory (durability of the rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(
    path: str,
    write_point: FaultPoint,
    fsync_point: FaultPoint,
    rename_point: FaultPoint,
    binary: bool = False,
) -> Iterator[IO[Any]]:
    """Yield a stream whose contents reach ``path`` atomically.

    The stream takes ``str`` (UTF-8 text, the graph files) or, with
    ``binary=True``, ``bytes`` (the index file) — the protocol is the
    same.  The caller writes the complete new contents to the yielded
    stream; on normal exit the data is flushed, fsynced and renamed over
    ``path`` in one atomic step.  On any exception the tmp file is
    removed and ``path`` is untouched.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
    fh: IO[Any] = (
        open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    )
    try:
        yield cast("IO[Any]", faults.wrap_write(fh, write_point))
        fh.flush()
        faults.fire(fsync_point)
        os.fsync(fh.fileno())
        fh.close()
        faults.fire(rename_point)
        os.replace(tmp, path)
        _fsync_dir(path)
    except BaseException:
        # Crash simulation or real failure: leave ``path`` untouched and
        # clean up the tmp file so repeated runs don't accumulate junk.
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
