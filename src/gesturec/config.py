"""Line-oriented run configuration.

Same format family as the catalog: UTF-8 text, ``#`` comments, blank lines
ignored, one ``section.field = value`` pair per line.  Each section is one
settings object of :class:`PipelineSettings` and each field one of its
dataclass fields::

    introvert.<field>, extravert.<field>   # ParameterSet anchors
    adaptation.<field>                     # AdaptationSpec deltas
    scheduler.<field>                      # SchedulerConfig

for example ``scheduler.hold_threshold_s = 2.0`` or
``extravert.max_rate = 3``.  Every key is optional; the built-in defaults
match the shipped experiment setup.  A value is read as a number, and an
unknown key is an error.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

from .errors import GesturecError
from .pipeline import PipelineSettings

SECTIONS = tuple(f.name for f in fields(PipelineSettings) if is_dataclass(f.default))


class ConfigError(GesturecError):
    pass


def _parse(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def load_config(text: str, settings: PipelineSettings = PipelineSettings()) -> PipelineSettings:
    """``settings`` with the values of a config document applied.

    Each settings object is rebuilt with :func:`dataclasses.replace`, so its
    own ``__post_init__`` checks the new values; a refusal names the line
    and key of each value set in that section.
    """
    keys = {f"{section}.{f.name}" for section in SECTIONS for f in fields(getattr(settings, section))}
    changes: dict[str, dict[str, float]] = {section: {} for section in SECTIONS}
    where: dict[str, list[str]] = {section: [] for section in SECTIONS}  # "line N: key" of each value set
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, _, name = key.partition(".")
        if name in changes[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        where[section].append(f"line {lineno}: {key}")
        changes[section][name] = _parse(value.strip(), where[section][-1])
    rebuilt = {}
    for section in SECTIONS:
        try:
            rebuilt[section] = replace(getattr(settings, section), **changes[section])
        except GesturecError as exc:  # a refusal by the section's __post_init__, kept as its type
            raise type(exc)(f"{'; '.join(where[section])}: {exc}") from None
    return replace(settings, **rebuilt)
