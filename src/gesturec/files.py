"""Output files: writing bytes in place, and indented JSON with sorted keys.

``build`` writes its bundles and manifest, ``compile`` its scripts and
``analyze`` its report through these.  The module imports no pipeline
stage, so a command that writes only a report loads no compiler module.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii


def write_file(path: str | os.PathLike, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``, overwriting it in place.

    The file is not truncated before the write, only cut at the end of the
    new bytes after it: on ext4 (``auto_da_alloc``) closing a file that was
    truncated from non-empty and rewritten starts its writeback at once,
    which made re-running ``build`` over an existing output directory
    several times slower than writing it fresh.  A new file gets the mode
    ``open(path, "wb")`` gives it.  Like a truncating write, this is not
    atomic: an interrupted write can leave the new bytes followed by the old
    file's tail.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:  # os.write may write fewer bytes than it is given
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _indented_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for objects with string
    keys, without the indenting encoder: it is pure Python, and each call
    leaves a reference cycle of closures for the garbage collector.  Strings
    go to the C function that ``json.dumps`` quotes them with, other scalars
    and empty containers to ``json.dumps``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{encode_basestring_ascii(key)}: {_indented_json(value[key], inner)}" for key in sorted(value))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        return "[\n" + ",\n".join(inner + _indented_json(item, inner) for item in value) + f"\n{indent}]"
    return json.dumps(value)


def write_json(path: str | os.PathLike, value) -> None:
    """Write ``value``, whose objects have string keys, to ``path`` as
    indented JSON with sorted keys and a final newline: the bytes of
    ``json.dumps(value, indent=2, sort_keys=True)``."""
    write_file(path, (_indented_json(value) + "\n").encode())
