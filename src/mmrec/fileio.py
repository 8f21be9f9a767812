"""Atomic artifact writes (a temporary file beside the target, then one
``os.replace``), the ``key: value`` meta files, and the one line reader.

Every text file mmrec reads (interaction files and streams, dataset files,
feature ID files, config and meta files) is checked for UTF-8 by
:func:`read_padded` and split by :func:`line_spans` under one line rule: a
line ends at ``\\n`` only, its trailing ``\\r`` are dropped, and a line
left empty is skipped. So ``\\r\\n`` ends a line as ``\\n`` does, a lone
``\\r`` inside a line is part of it, and line numbers count every ``\\n``.

Every file a run leaves behind (dataset files, checkpoints, training logs,
metric reports, ``summary.tsv`` and ``timings.tsv``) is written through
:func:`atomic_write`, so a reader sees either the previous file or the
complete new one, and a run that fails or is interrupted mid-write never
leaves a plausible-looking partial artifact under the final name.
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Callable, Iterator

import numpy as np

# zero bytes on each side of a read_padded buffer, so that an 8-byte load
# at any line's start or end stays inside the buffer
PAD = 8


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for writing through a temporary file in its directory.

    Text mode writes UTF-8 with ``\\n`` line ends. When the block ends
    cleanly the temporary file replaces ``path``; when it raises, the
    temporary file is removed and ``path`` keeps its previous content.
    """
    target = os.fspath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def at_line(cls: Callable[[str], Exception], path: str | os.PathLike):
    """An ``error(line, message)``, as :func:`read_padded` takes: ``cls``
    of one message naming ``path`` and the line."""
    return lambda line_no, message: cls(f"{os.fspath(path)}: line {line_no}: {message}")


def read_padded(path: str | os.PathLike, error: Callable[[int, str], Exception]) -> bytearray:
    """A file's bytes between ``PAD`` zero bytes on each side, read into one
    buffer. Unless they are UTF-8, raises ``error(line, message)`` for the
    first byte that is not."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = bytearray(size + 2 * PAD)
        n = fh.readinto(memoryview(buf)[PAD:PAD + size])
        # the rest of a file that grew since fstat or is not a regular file
        buf[PAD + n:] = fh.read() + bytes(PAD)
    if not buf.isascii():
        try:
            str(memoryview(buf)[PAD:-PAD], "utf-8")
        except UnicodeDecodeError as exc:
            # the error holds the whole text, so its offset is the file's
            line_no = exc.object[:exc.start].count(b"\n") + 1
            raise error(line_no, f"not UTF-8: byte {exc.object[exc.start]:#04x} ({exc.reason})") from None
    return buf


def line_spans(buf: bytes | bytearray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept lines of the bytes between ``PAD`` bytes on each side of
    ``buf``, under the line rule: their start and end offsets in ``buf``
    (the end after the trailing ``\\r`` are dropped) and their 0-based line
    numbers, as int64 arrays."""
    hi = len(buf) - PAD
    b = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(b[PAD:hi] == 10)
    ends += PAD
    if hi > PAD and b[hi - 1] != 10:
        ends = np.append(ends, hi)  # the last line has no terminator
    starts = np.concatenate([[PAD], ends[:-1] + 1])[: ends.size]
    if buf.find(b"\r", PAD, hi) >= 0:
        while (cr := np.flatnonzero((ends > starts) & (b[ends - 1] == 13))).size:
            ends[cr] -= 1
    index = np.flatnonzero(ends > starts)
    if index.size < ends.size:  # skip the empty lines
        starts, ends = starts[index], ends[index]
    return starts, ends, index


def read_lines(path: str | os.PathLike, error: Callable[[int, str], Exception]) -> list[tuple[int, str]]:
    """A file's kept lines as (1-based line number, text); ``error`` as in
    :func:`read_padded`."""
    buf = read_padded(path, error)
    return [(i + 1, buf[s:e].decode()) for s, e, i in zip(*(a.tolist() for a in line_spans(buf)))]


def write_meta(path: str | os.PathLike, fields: dict[str, object]) -> None:
    """One ``key: value`` line per field, in order; None is written as empty."""
    with atomic_write(path) as fh:
        fh.write("".join(f"{key}: {'' if value is None else value}\n" for key, value in fields.items()))


def read_meta(path: str | os.PathLike) -> dict[str, str]:
    """A meta file's fields, keys and values stripped; blank lines are
    skipped. A byte that is not UTF-8 raises UnicodeError with its line."""
    lines = read_lines(path, at_line(UnicodeError, path))
    pairs = [line.partition(":") for _, line in lines if line.strip()]
    return {key.strip(): value.strip() for key, _, value in pairs}
