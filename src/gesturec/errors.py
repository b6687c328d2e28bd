"""Exception taxonomy shared across the pipeline."""

from __future__ import annotations


class GesturecError(Exception):
    """Base class for all errors raised by this package.  ``story_id`` is
    ``None`` except on an error raised while a stimulus batch built a
    story: there it is that story's key, by which the CLI names its files."""

    story_id: str | None = None


class CatalogError(GesturecError):
    """Problem with a gesture catalog document or lookup."""


class DuplicateGestureError(CatalogError):
    pass


class UnknownGestureError(CatalogError):
    """A gesture name the catalog lacks."""


class DialogParseError(GesturecError):
    """Malformed dialog source. Carries 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}" if line else message)
        self.line = line
        self.column = column


class AnnotationOrderError(DialogParseError):
    """Stroke times not strictly increasing within a turn."""


class TimingError(GesturecError):
    """Problem with a word timing track."""


class TimingFormatError(TimingError):
    pass


class TimingOrderError(TimingError):
    pass


class AlignError(GesturecError):
    """Stroke alignment against a timing track failed."""


class NoFollowingWordError(AlignError):
    pass


class StrokeCollisionError(AlignError):
    pass


class WordMismatchError(AlignError):
    """A timing track's words differ from the dialog's, or a stroke's
    written time falls outside the window of the word it is written before."""


class DomainError(GesturecError, ValueError):
    """Input value outside its documented domain."""


class PlanError(GesturecError):
    """Stimulus or variant plan inconsistent with the dialog."""


class ScheduleError(GesturecError):
    """Timeline construction failed in strict mode."""


class StrokeOverlapError(ScheduleError):
    pass


class StrokeOverrunError(ScheduleError):
    pass


class EmptyStrokeError(ScheduleError):
    """A stroke whose duration at its speed rounds to 0 ms."""


class EmitError(GesturecError):
    """Timeline rejected at serialization time."""


class ScriptError(GesturecError):
    """Malformed script document. Carries a path to the offending field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class StatError(GesturecError):
    """Statistical computation not defined for the given data."""


class EmptyCellError(StatError):
    pass
