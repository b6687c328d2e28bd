"""gesturec: compile gesture-annotated dialog scripts for two virtual
storytelling agents into deterministic, timed gesture-performance scripts,
and reproduce the accompanying experiment statistics."""

from .adaptation import AdaptationSpec, check_copy_provenance, resolve_variant
from .align import WordTimingTrack, align_strokes, parse_word_timings
from .catalog import GestureCatalog, GestureDef, load_catalog, lookup
from .dsl import (
    AnnotatedDialog,
    Features,
    GestureAnnotation,
    Turn,
    format_dialog,
    parse_dialog,
    segment_sentences,
)
from .emitter import Timeline, emit_script, read_script, validate_timeline
from .personality import (
    ParameterSet,
    apply_personality,
    profile_from_extraversion,
)
from .pipeline import CompileResult, PipelineSettings, compile_dialog
from .scheduler import SchedulerConfig, schedule

__version__ = "0.1.0"

__all__ = [
    "AdaptationSpec",
    "AnnotatedDialog",
    "CompileResult",
    "Features",
    "GestureAnnotation",
    "GestureCatalog",
    "GestureDef",
    "ParameterSet",
    "PipelineSettings",
    "SchedulerConfig",
    "Timeline",
    "Turn",
    "WordTimingTrack",
    "align_strokes",
    "apply_personality",
    "check_copy_provenance",
    "compile_dialog",
    "emit_script",
    "format_dialog",
    "load_catalog",
    "lookup",
    "parse_dialog",
    "parse_word_timings",
    "profile_from_extraversion",
    "read_script",
    "resolve_variant",
    "schedule",
    "segment_sentences",
    "validate_timeline",
]
