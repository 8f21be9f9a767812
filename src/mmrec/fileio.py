"""Atomic artifact writes (a temporary file beside the target, then one
``os.replace``), the ``key: value`` meta files, undecodable lines, and the
one line rule.

Every text file mmrec reads (interaction files and streams, dataset files,
feature ID files, config and meta files) follows one line rule: a line ends
at ``\\n`` only, its trailing ``\\r`` are dropped, and a line left empty is
skipped. So ``\\r\\n`` ends a line as ``\\n`` does, a lone ``\\r`` inside a
line is part of it, and line numbers count every ``\\n``, skipped lines
included.

Every file a run leaves behind (dataset files, checkpoints, training logs,
metric reports, ``summary.tsv`` and ``timings.tsv``) is written through
:func:`atomic_write`, so a reader sees either the previous file or the
complete new one, and a run that fails or is interrupted mid-write never
leaves a plausible-looking partial artifact under the final name.
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator


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


def undecodable_line(exc: UnicodeDecodeError) -> tuple[int, str]:
    """The 1-based line and a message for a file whose bytes, decoded all
    at once, raised ``exc``: one bytes read decoded whole, or one text
    ``read()``. The error then holds the whole file, so its offset is the
    file's."""
    line_no = exc.object[:exc.start].count(b"\n") + 1
    return line_no, f"not UTF-8: byte {exc.object[exc.start]:#04x} ({exc.reason})"


def write_meta(path: str | os.PathLike, fields: dict[str, object]) -> None:
    """One ``key: value`` line per field, in order; None is written as empty."""
    with atomic_write(path) as fh:
        fh.write("".join(f"{key}: {'' if value is None else value}\n" for key, value in fields.items()))


def read_meta(path: str | os.PathLike) -> dict[str, str]:
    """A meta file's fields, keys and values stripped; blank lines are
    skipped. A byte that is not UTF-8 raises UnicodeError with its line."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            line_no, message = undecodable_line(exc)
            raise UnicodeError(f"{os.fspath(path)}: line {line_no}: {message}") from None
    pairs = [line.partition(":") for line in text.split("\n") if line.strip()]
    return {key.strip(): value.strip() for key, _, value in pairs}
