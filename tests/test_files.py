import os
import stat
import threading

import pytest

from gilbreath.files import write_file


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_is_written_directly(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    # A daemon, so that a writer which never opens the FIFO cannot hang the run.
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    chunks = [b"x" * 200_000, b"y" * 3]  # more than a pipe buffer holds
    try:
        write_file(str(fifo), chunks)
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"".join(chunks)]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_failed_write_keeps_the_old_file_and_no_temporary_file(tmp_path):
    real, link = tmp_path / "real", tmp_path / "link"
    real.write_bytes(b"old")
    link.symlink_to(real)

    def chunks():
        yield b"new"
        raise RuntimeError("killed")

    with pytest.raises(RuntimeError, match="killed"):
        write_file(str(link), chunks())
    assert real.read_bytes() == b"old" and link.is_symlink()
    write_file(str(link), [b"new"])
    assert real.read_bytes() == b"new" and link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]
