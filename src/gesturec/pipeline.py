"""End-to-end compilation of one dialog: parse, align, personality,
variant resolution, scheduling."""

from __future__ import annotations

from dataclasses import dataclass, field

from .adaptation import AdaptationSpec, resolve_variant, strip_adaptation
from .align import WordTimingTrack, align_strokes
from .catalog import GestureCatalog
from .dsl import SPEAKERS, AnnotatedDialog, parse_dialog
from .errors import PlanError, UnknownGestureError
from .personality import (
    EXTRAVERT_ANCHOR,
    INTROVERT_ANCHOR,
    ParameterSet,
    apply_personality,
    profile_from_extraversion,
)
from .scheduler import SchedulerConfig, ScheduleResult, schedule


@dataclass(frozen=True)
class PipelineSettings:
    scheduler: SchedulerConfig = SchedulerConfig()
    adaptation: AdaptationSpec = AdaptationSpec()
    introvert: ParameterSet = INTROVERT_ANCHOR
    extravert: ParameterSet = EXTRAVERT_ANCHOR
    extraversion: dict[str, float] = field(default_factory=lambda: {"A": 7.0, "B": 7.0})
    strict: bool = True

    def profile(self, speaker: str) -> ParameterSet:
        return profile_from_extraversion(self.extraversion[speaker], self.introvert, self.extravert)


@dataclass
class CompileResult:
    schedule: ScheduleResult


def prepare_dialog(
    dialog: AnnotatedDialog,
    catalog: GestureCatalog,
    track: WordTimingTrack | None,
    settings: PipelineSettings,
) -> AnnotatedDialog:
    """Align against the timing track and stamp each speaker's personality
    features, from ``settings.profile``.

    An unknown gesture is named at its time as written: when personality
    refuses the aligned dialog, it runs again on the written one, which
    raises the same error at the written time."""
    written = dialog
    if track is not None:
        dialog = align_strokes(dialog, track, lead=settings.scheduler.stroke_lead_s)
    for speaker in SPEAKERS:
        profile = settings.profile(speaker)
        try:
            dialog = apply_personality(dialog, speaker, profile, catalog)
        except UnknownGestureError:
            if track is not None:
                apply_personality(written, speaker, profile, catalog)
            raise
    return dialog


def compile_dialog(
    source: str,
    catalog: GestureCatalog,
    timings: WordTimingTrack | None = None,
    settings: PipelineSettings = PipelineSettings(),
    variant: str = "nonadapted",
) -> CompileResult:
    """Full pipeline for one dialog document.

    ``variant='adapted'`` adapts the final turn, spoken by the responder;
    ``'nonadapted'`` renders the dialog without adaptation anywhere.
    """
    dialog = prepare_dialog(parse_dialog(source), catalog, timings, settings)
    if variant == "adapted":
        resolved = resolve_variant(dialog, settings.adaptation)
    elif variant == "nonadapted":
        resolved = strip_adaptation(dialog)
    else:
        raise PlanError(f"unknown variant {variant!r}")
    result = schedule(resolved, settings.scheduler, strict=settings.strict)
    return CompileResult(schedule=result)
