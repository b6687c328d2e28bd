"""Gesture vocabulary: names and base geometry.

Catalog documents are UTF-8 line-oriented text, one entry per line::

    name, expanse_cm, height_cm, outwardness_cm

``#`` begins a comment, blank lines are ignored.  A name follows the
gesture-name rule of dialogs and scripts (``dsl.GESTURE_NAME``).  A
``# catalog-version: X`` comment, when present, sets the catalog version; a
second one is an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .dsl import GESTURE_NAME
from .errors import CatalogError, DuplicateGestureError, UnknownGestureError

VERSION_PREFIX = "# catalog-version:"
_NAME_RE = re.compile(GESTURE_NAME)


@dataclass(frozen=True)
class GestureDef:
    """One named gesture with its base geometry.

    Geometry is measured in centimeters: ``base_expanse`` from body center,
    ``base_height`` above the waist reference, ``base_outwardness`` forward
    of the torso plane.
    """

    name: str
    base_expanse: float
    base_height: float
    base_outwardness: float

    def __post_init__(self):
        for field in ("base_expanse", "base_height", "base_outwardness"):
            if not math.isfinite(getattr(self, field)):
                raise CatalogError(f"{self.name}: {field} must be finite")
        if self.base_expanse < 0:
            raise CatalogError(f"{self.name}: base_expanse must be >= 0")


@dataclass(frozen=True)
class GestureCatalog:
    entries: dict[str, GestureDef]
    version: str = "1"


def load_catalog(source: str) -> GestureCatalog:
    """Parse a catalog document, validating every entry.

    Raises :class:`CatalogError` subclasses on duplicate names, names that
    break the gesture-name rule, malformed lines, non-finite or
    negative-expanse geometry and empty documents.
    """
    entries: dict[str, GestureDef] = {}
    version = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if line.startswith(VERSION_PREFIX):
            if version is not None:
                raise CatalogError(f"line {lineno}: a second {VERSION_PREFIX!r} line")
            version = line[len(VERSION_PREFIX):].strip()
            continue
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise CatalogError(f"line {lineno}: expected 4 comma-separated fields, got {len(parts)}")
        name = parts[0]
        if not _NAME_RE.fullmatch(name):
            raise CatalogError(f"line {lineno}: gesture name {name!r} is not a gesture name")
        if name in entries:
            raise DuplicateGestureError(f"line {lineno}: duplicate gesture {name!r}")
        try:
            expanse, height, outwardness = (float(p) for p in parts[1:])
        except ValueError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from None
        entries[name] = GestureDef(name, expanse, height, outwardness)
    if not entries:
        raise CatalogError("empty catalog")
    return GestureCatalog(entries=entries, version="1" if version is None else version)


def lookup(catalog: GestureCatalog, name: str) -> GestureDef:
    try:
        return catalog.entries[name]
    except KeyError:
        raise UnknownGestureError(f"unknown gesture {name!r}") from None
