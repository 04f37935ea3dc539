"""The one way a run writes a file: records to --out and primes checkpoints."""

from __future__ import annotations

import contextlib
import os
from typing import Iterable


def write_file(path: str, chunks: Iterable[bytes]) -> None:
    """Write the chunks to `path`.

    An existing path that is not a regular file (a device, FIFO or directory)
    is written directly.  Otherwise the chunks go to a temporary file beside
    the real target, symlinks followed, which is flushed, fsynced and renamed
    over it: a crash leaves the old file or the new one, never a torn one.  A
    write or rename that fails leaves no temporary file behind.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
