"""The one atomic file write the cache, the daemon and the CLI share."""

from __future__ import annotations

import contextlib
import os
import tempfile


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace ``path``'s content with ``text`` atomically.

    The text goes to a temp file in the same directory, which
    ``os.replace`` then renames over ``path``: a reader sees the old
    content or the new, never a torn file, and concurrent writers race
    benignly (last one wins).  The temp file is removed when the write
    or the rename fails.  There is no fsync: the cache stores through
    this on every solve, and a crash may lose the newest write but
    never tear a file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".repro-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
