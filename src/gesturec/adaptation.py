"""Gestural adaptation: resolving annotated dialogs into adapted or
non-adapted performances.

Adaptation is convergence toward the interlocutor: a higher gesture rate
(1-3 per sentence via the rate-added extras), copied gesture forms, and
larger, higher, faster strokes.  It occurs only in the final (response)
turn; all earlier turns (the context) render identically in both variants,
stripped of adaptation markers.

In the adapted response turn the rate-added annotations are retained, the
pre-slash variants are selected, and the convergence deltas stack on top
of the personality features: geometry offsets add, speed and scale
multiply.  In the non-adapted response turn rate-added annotations are
removed, the post-slash alternatives are selected (annotations without an
alternative keep their gesture with the copy flag cleared), and no deltas
apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .dsl import AnnotatedDialog, GestureAnnotation, Turn, new_annotation, new_features, new_turn
from .errors import DomainError, PlanError


@dataclass(frozen=True)
class AdaptationSpec:
    """Convergence deltas applied to the responder's response turn."""

    expanse_delta: float = 18.0  # cm further from center
    height_delta: float = 10.0  # cm higher
    outwardness_delta: float = 10.0  # cm more outward
    speed_factor: float = 1.25
    scale_factor: float = 1.5

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("expanse_delta", "height_delta", "outwardness_delta"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0 (convergence is toward more extraverted)")
        for name in ("speed_factor", "scale_factor"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1 (convergence is toward more extraverted)")


class CopyProvenance(NamedTuple):
    copy_turn: int
    copy: GestureAnnotation
    source_turn: int | None
    source: GestureAnnotation | None


def _nonadapted(ann: GestureAnnotation) -> GestureAnnotation | None:
    if ann.rate_added:
        return None
    if ann.alternative is not None:
        alt = ann.alternative
        return new_annotation((
            ann.stroke_begin, alt.gesture_name, alt.hand, alt.stroke_duration, ann.rate_added,
            False, None, ann.word_index, ann.alt_features, None,
        ))
    if ann.form_copied:
        return new_annotation(ann[:5] + (False,) + ann[6:])
    return ann


def _adapted(ann: GestureAnnotation, spec: AdaptationSpec) -> GestureAnnotation:
    if ann.features is None:
        raise PlanError(
            f"annotation at {ann.stroke_begin:.2f}s has no effective features; "
            "apply personality before resolving the adapted variant"
        )
    f = ann.features
    adapted_features = new_features((
        f.expanse_cm + spec.expanse_delta,
        f.height_cm + spec.height_delta,
        f.outwardness_cm + spec.outwardness_delta,
        f.speed * spec.speed_factor,
        f.scale * spec.scale_factor,
    ))
    return new_annotation(ann[:6] + (None, ann.word_index, adapted_features, None))


def _nonadapted_turn(turn: Turn) -> Turn:
    annotations = tuple(r for a in turn.annotations if (r := _nonadapted(a)) is not None)
    return turn if annotations == turn.annotations else new_turn(turn[:3] + (annotations,))


def resolve_variant(dialog: AnnotatedDialog, spec: AdaptationSpec = AdaptationSpec()) -> AnnotatedDialog:
    """The adapted performance: the final turn is the response turn and
    adapts; every earlier turn renders as in :func:`strip_adaptation`, so
    the two performances differ only in the response turn.
    """
    if not dialog.turns:
        raise PlanError("dialog has no turns")
    *context, response = dialog.turns
    adapted = new_turn(response[:3] + (tuple(_adapted(a, spec) for a in response.annotations),))
    return dialog._replace(turns=(*map(_nonadapted_turn, context), adapted))


def strip_adaptation(dialog: AnnotatedDialog) -> AnnotatedDialog:
    """The non-adapted performance: every turn without adaptation."""
    return dialog._replace(turns=tuple(map(_nonadapted_turn, dialog.turns)))


def check_copy_provenance(dialog: AnnotatedDialog) -> list[CopyProvenance]:
    """Pair each copied gesture in the final turn with its source: the most
    recent earlier annotation by the other speaker with the same gesture
    name.  Unmatched copies are reported with a ``None`` source.
    """
    if not dialog.turns:
        return []
    final = dialog.turns[-1]
    pairs: list[CopyProvenance] = []
    for copy in final.annotations:
        if not copy.form_copied:
            continue
        found: tuple[int, GestureAnnotation] | None = None
        for turn in reversed(dialog.turns[:-1]):
            if turn.speaker == final.speaker:
                continue
            for ann in reversed(turn.annotations):
                if ann.gesture_name == copy.gesture_name:
                    found = (turn.index, ann)
                    break
            if found:
                break
        pairs.append(
            CopyProvenance(
                copy_turn=final.index,
                copy=copy,
                source_turn=found[0] if found else None,
                source=found[1] if found else None,
            )
        )
    return pairs
