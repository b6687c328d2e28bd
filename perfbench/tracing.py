"""Per-module tracing from outside the program.

:class:`Tracer` replaces each public function of a gesturec module at the
names its callers bound (``gesturec.stimuli.emit_script``,
``gesturec.emitter.validate_timeline``, ...) with a wrapper that records a
span: name, start, end, parent span and op id.  Wrappers are installed
only around traced ops and removed afterwards, so untraced ops run the
program unwrapped.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

LAYERS = (
    "dsl", "align", "personality", "adaptation", "scheduler", "emitter",
    "stimuli", "pipeline", "analysis", "special", "catalog",
)


def _annotations(dialog, speaker: str) -> int:
    return sum(len(t.annotations) for t in dialog.turns if t.speaker == speaker)


def _observe_parse(tracer, args, result):
    tracer.counts["dsl.tokens"] += sum(len(t.text.split()) + len(t.annotations) for t in result.turns)


def _observe_personality(tracer, args, result):
    dialog, speaker = args[0], args[1]
    tracer.counts["personality.in"] += _annotations(dialog, speaker)
    tracer.counts["personality.kept"] += _annotations(result, speaker)


def _observe_emit(tracer, args, result):
    tracer.counts["emitter.bytes_out"] += len(result)
    tracer.counts["emitter.scripts"] += 1
    if result in tracer.scripts_seen:
        tracer.counts["emitter.duplicates"] += 1
    tracer.scripts_seen.add(result)


def _observe_write(tracer, args, result):
    bundles = args[0]
    tracer.counts["stimuli.files_written"] += sum(len(b.scripts) + 1 for b in bundles) + 1


# (module, attribute bound there, span name, observer)
BINDINGS = (
    ("gesturec.dsl", "parse_dialog", "dsl.parse_dialog", _observe_parse),
    ("gesturec.pipeline", "parse_dialog", "dsl.parse_dialog", _observe_parse),
    ("gesturec.personality", "segment_sentences", "dsl.segment_sentences", None),
    ("gesturec.stimuli", "truncate_dialog", "dsl.truncate_dialog", None),
    ("gesturec.align", "parse_word_timings", "align.parse_word_timings", None),
    ("gesturec.pipeline", "align_strokes", "align.align_strokes", None),
    ("gesturec.pipeline", "apply_personality", "personality.apply_personality", _observe_personality),
    ("gesturec.pipeline", "profile_from_extraversion", "personality.profile_from_extraversion", None),
    ("gesturec.stimuli", "profile_from_extraversion", "personality.profile_from_extraversion", None),
    ("gesturec.pipeline", "strip_adaptation", "adaptation.strip_adaptation", None),
    ("gesturec.pipeline", "resolve_variant", "adaptation.resolve_variant", None),
    ("gesturec.stimuli", "strip_adaptation", "adaptation.strip_adaptation", None),
    ("gesturec.stimuli", "resolve_variant", "adaptation.resolve_variant", None),
    ("gesturec.pipeline", "schedule", "scheduler.schedule", None),
    ("gesturec.stimuli", "schedule", "scheduler.schedule", None),
    ("gesturec.emitter", "validate_timeline", "scheduler.validate_timeline", None),
    ("gesturec.emitter", "emit_script", "emitter.emit_script", _observe_emit),
    ("gesturec.stimuli", "emit_script", "emitter.emit_script", _observe_emit),
    ("gesturec.emitter", "document_from_timeline", "emitter.flatten", None),
    ("gesturec.emitter", "emit_document", "emitter.render", None),
    ("gesturec.stimuli", "run_personality_batch", "stimuli.run_personality_batch", None),
    ("gesturec.stimuli", "run_adaptation_batch", "stimuli.run_adaptation_batch", None),
    ("gesturec.stimuli", "build_personality_pair", "stimuli.build_personality_pair", None),
    ("gesturec.stimuli", "build_adaptation_pair", "stimuli.build_adaptation_pair", None),
    ("gesturec.stimuli", "write_bundles", "stimuli.write_bundles", _observe_write),
    ("gesturec.pipeline", "compile_dialog", "pipeline.compile_dialog", None),
    ("gesturec.pipeline", "prepare_dialog", "pipeline.prepare_dialog", None),
    ("gesturec.stimuli", "prepare_dialog", "pipeline.prepare_dialog", None),
    ("gesturec.analysis", "read_judgments", "analysis.read_judgments", None),
    ("gesturec.analysis", "preference_table", "analysis.preference_table", None),
    ("gesturec.analysis", "one_sample_ttest", "analysis.one_sample_ttest", None),
    ("gesturec.analysis", "why_category_table", "analysis.why_category_table", None),
    ("gesturec.analysis", "tipi_score", "analysis.tipi_score", None),
    ("gesturec.analysis", "anova", "analysis.anova", None),
    ("gesturec.analysis", "f_sf", "special.f_sf", None),
    ("gesturec.analysis", "student_t_two_tailed", "special.student_t_two_tailed", None),
    ("gesturec.catalog", "load_catalog", "catalog.load_catalog", None),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the op root
    op: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.calls: Counter[str] = Counter()
        self.op = -1
        self.counts: Counter[str] = Counter()  # observer counts of the current op
        self.scripts_seen: set[bytes] = set()  # scripts emitted in the current op
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, start, end, parent, self.op)
                self.calls[name] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, observe in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts = Counter()
        self.scripts_seen = set()

    def spans_from(self, first: int) -> list[tuple[int, Span]]:
        """Finished spans recorded since span index ``first``."""
        return [(i, s) for i, s in enumerate(self.spans[first:], start=first) if s is not None]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for i, s in enumerate(self.spans)
            if s is not None
        ]
        path.write_text(json.dumps({"spans": rows, "calls": dict(self.calls)}) + "\n", encoding="utf-8")


def layer_times(spans: list[tuple[int, Span]]) -> tuple[dict[str, float], dict[str, float]]:
    """(total ms per span name, self ms per layer) over one op's spans.

    A span's self time is its duration minus that of its direct children.
    """
    child_ms: Counter[int] = Counter()
    for _, span in spans:
        if span.parent is not None:
            child_ms[span.parent] += (span.end - span.start) * 1000
    total: Counter[str] = Counter()
    self_ms: Counter[str] = Counter({layer: 0.0 for layer in LAYERS})
    for sid, span in spans:
        ms = (span.end - span.start) * 1000
        total[span.name] += ms
        self_ms[span.name.split(".")[0]] += ms - child_ms[sid]
    return total, self_ms
