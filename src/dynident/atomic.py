"""Output files that appear whole or not at all.

Every file the toolkit writes goes through :func:`atomic_open`: the data
goes to a temporary file in the target's directory, which replaces the
target only once it has been written and closed.  A failure part-way leaves
an earlier file at the target untouched and removes the temporary file, so
a reader never sees half a file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path``; on a clean exit, move it onto ``path``.

    ``mode`` and ``kwargs`` go to :func:`open`; ``mode`` must be a write mode.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed part-way
            os.remove(tmp)
