"""The state store: the per-(user, course) states ``pipeline`` read, kept
for ``mine``.

``pipeline`` writes one store file, ``states.bin``, into its output
directory, and ``mine`` reads its states back instead of parsing the logs
again. The store also holds the passing threshold and the session gap
``pipeline`` ran with, which ``mine`` mines under, and the size and CRC-32
of every log ``pipeline`` read, so ``mine`` can check that it was given the
same logs. Every number is little-endian:

- a header: the magic ``EDXSTATE`` and the format version (u32), then the
  passing threshold (f64), the session gap in microseconds (i64) and the
  number of logs (u32);
- per log, in input order: its size in bytes (u64) and its CRC-32 (u32);
- the number of students (u32), then one record per student, in (course,
  user) order, each state in total order:
  - its row count, string count and text length in bytes (u32 each);
  - the length in code points (u32) of the user id, the course id and each
    string of the student's string table;
  - the text: those strings end to end, in UTF-8 with lone surrogates kept;
  - the five columns: ``times`` (i64), ``types`` (u8), ``content`` and
    ``sessions`` (u32: 0 for none, else 1 + an index into the string table)
    and ``values`` (f64, four per row);
- the CRC-32 (u32) of every byte before it.
"""

from __future__ import annotations

import sys
import struct
import zlib
from array import array
from datetime import timedelta
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Sequence, Union

from .engagement import StudentEvents
from .events import RETAINED_EVENT_TYPES
from .manifest import InputError

STORE_NAME = "states.bin"
VERSION = 2

_MAGIC = b"EDXSTATE"
_HEAD = struct.Struct("<8sI")  # magic, version
_RUN = struct.Struct("<dqI")  # passing threshold, gap in microseconds, log count
_MICROSECOND = timedelta(microseconds=1)
#: The longest session gap the store's signed 64-bit microseconds hold,
#: about 292,000 years.
MAX_GAP = timedelta(microseconds=2**63 - 1)
_LOG = struct.Struct("<QI")  # size, CRC-32
_U32 = struct.Struct("<I")
_RECORD = struct.Struct("<III")  # rows, strings, text bytes
# Small reads: a larger buffer, taken while pipeline's states are alive,
# shows in its peak RSS.
_CHUNK = 1 << 16
_BIG_ENDIAN = sys.byteorder == "big"

#: A log's (size in bytes, CRC-32 of those bytes).
Checksum = tuple[int, int]


def log_checksums(paths: Sequence[Path]) -> list[Checksum]:
    """The (size, CRC-32) of each file's bytes as they lie on disk; a
    ``.gz`` log is not decompressed."""
    checksums = []
    for path in paths:
        size = crc = 0
        with open(path, "rb") as handle:
            while chunk := handle.read(_CHUNK):
                size += len(chunk)
                crc = zlib.crc32(chunk, crc)
        checksums.append((size, crc))
    return checksums


def _little_endian(column: array) -> bytes:
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _from_little_endian(typecode: str, data: bytes) -> array:
    column = array(typecode)
    column.frombytes(data)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _record(state: StudentEvents) -> bytes:
    strings = dict.fromkeys(chain(state.content, state.sessions))
    strings.pop(None, None)
    index = dict(zip(strings, range(1, len(strings) + 1)))
    index[None] = 0
    texts = [state.user_id, state.course_id, *strings]
    text = "".join(texts).encode("utf-8", "surrogatepass")
    return b"".join((
        _RECORD.pack(len(state), len(strings), len(text)),
        _little_endian(array("I", map(len, texts))),
        text,
        _little_endian(state.times),
        state.types,
        _little_endian(array("I", map(index.__getitem__, state.content))),
        _little_endian(array("I", map(index.__getitem__, state.sessions))),
        _little_endian(state.values),
    ))


def write_store(
    path: Union[str, Path], logs: Sequence[Checksum], passing_threshold: float, gap: timedelta,
    states: Sequence[StudentEvents],
) -> Path:
    """Write ``states``, already in total order, the checksums of the logs
    they were read from, and the passing threshold and session gap they were
    classified under, to ``path``; the states go in the order given."""
    path = Path(path)
    crc = 0
    with open(path, "wb") as handle:
        head = [_HEAD.pack(_MAGIC, VERSION),
                _RUN.pack(passing_threshold, gap // _MICROSECOND, len(logs)),
                *(_LOG.pack(*log) for log in logs), _U32.pack(len(states))]
        for part in chain(head, map(_record, states)):
            handle.write(part)
            crc = zlib.crc32(part, crc)
        handle.write(_U32.pack(crc))
    return path


def _split(data, sizes) -> list:
    """``data`` cut into consecutive pieces of ``sizes``; raises ValueError
    unless the sizes add up to its length."""
    ends = list(accumulate(sizes))
    if ends[-1] != len(data):
        raise ValueError("lengths do not add up")
    return list(map(data.__getitem__, map(slice, [0, *ends], ends)))


def _state(take: Callable[[int], bytes], memo: dict[str, str]) -> StudentEvents:
    """One student's record. Raises ValueError or IndexError where it does
    not add up."""
    n, n_strings, text_bytes = _RECORD.unpack(take(_RECORD.size))
    sizes = (4 * (2 + n_strings), text_bytes, 8 * n, n, 4 * n, 4 * n, 32 * n)
    lengths, text, times, types, content, sessions, values = _split(
        memoryview(take(sum(sizes))), sizes
    )
    texts = _split(str(text, "utf-8", "surrogatepass"), _from_little_endian("I", lengths))
    user_id, course_id, *strings = map(memo.setdefault, texts, texts)
    table = [None, *strings]
    types = bytearray(types)
    if n and max(types) >= len(RETAINED_EVENT_TYPES):
        raise ValueError("an unknown event type code")
    return StudentEvents.from_sorted(
        user_id, course_id, _from_little_endian("q", times), types,
        list(map(table.__getitem__, _from_little_endian("I", content))),
        list(map(table.__getitem__, _from_little_endian("I", sessions))),
        _from_little_endian("d", values),
    )


def read_store(
    path: Union[str, Path],
) -> tuple[list[Checksum], float, timedelta, list[StudentEvents]]:
    """The log checksums, passing threshold, session gap and states of a
    store :func:`write_store` wrote. A missing store, or one that is
    truncated, altered or of another format version, is an input error
    naming it."""
    path = Path(path)
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise InputError(f"{path}: no state store; run pipeline with this --out first") from None
    with handle:
        left = path.stat().st_size - _U32.size  # bytes before the CRC
        crc = 0

        def take(size: int) -> bytes:
            nonlocal left, crc
            data = handle.read(size) if size <= left else b""
            if len(data) != size:
                raise ValueError("truncated")
            left -= size
            crc = zlib.crc32(data, crc)
            return data

        try:
            magic, version = _HEAD.unpack(take(_HEAD.size))
            if magic != _MAGIC:
                raise InputError(f"{path}: not a state store")
            if version != VERSION:
                raise InputError(
                    f"{path}: state store of format version {version}; this edxmine reads "
                    f"version {VERSION}, so run pipeline again"
                )
            passing_threshold, gap, n_logs = _RUN.unpack(take(_RUN.size))
            if not (0 < passing_threshold <= 1 and gap > 0):
                raise ValueError("a passing threshold or session gap out of range")
            logs = list(_LOG.iter_unpack(take(_LOG.size * n_logs)))
            (n_students,) = _U32.unpack(take(_U32.size))
            memo: dict[str, str] = {}
            states = [_state(take, memo) for _ in range(n_students)]
            if left or handle.read() != _U32.pack(crc):
                raise ValueError("checksum mismatch")
        except IndexError:
            raise InputError(f"{path}: damaged state store (a string index out of range)") from None
        except ValueError as exc:  # includes UnicodeDecodeError
            raise InputError(f"{path}: damaged state store ({exc})") from None
    return logs, passing_threshold, gap * _MICROSECOND, states
