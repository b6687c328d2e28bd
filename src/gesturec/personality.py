"""Extraversion model: numeric gesture parameters and rate reduction.

An extraversion score on the 7-point TIPI scale maps linearly between two
anchors.  The annotation default is the extravert performance (at most 2
gestures per sentence, neutral offsets and multipliers); the introvert
anchor narrows, lowers and slows the same gestures and halves the rate.
Introvert anchor numbers are engineering constants consistent with the
qualitative introvert/extravert contrasts (narrow vs wide, inward vs
outward, low vs high rate, slow vs fast); only the adaptation deltas have
published values.  ``apply_personality`` builds each gesture's ``Features``
once per call, for main gestures and alternatives alike.  It builds each
features record, stamped annotation and rebuilt turn positionally, in class
order, with ``dsl.new_features``, ``dsl.new_annotation`` and
``dsl.new_turn``, not a keyword constructor or ``_replace``.  Each profile
is interpolated once per distinct score and anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

from .catalog import GestureCatalog, lookup
from .dsl import (
    AnnotatedDialog, Features, GestureAnnotation, Turn, new_annotation, new_features, new_turn, segment_sentences,
    turn_label,
)
from .errors import DomainError, UnknownGestureError

EXTRAVERSION_MIN = 1.0
EXTRAVERSION_MAX = 7.0


@dataclass(frozen=True)
class ParameterSet:
    """Numeric gesture-feature parameters for one agent."""

    max_rate: float  # gestures per sentence
    expanse_offset: float  # cm
    height_offset: float  # cm
    outwardness_offset: float  # cm
    speed_multiplier: float
    scale_multiplier: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.max_rate >= 0:
            raise DomainError(f"max_rate must be >= 0, got {self.max_rate}")
        for name in ("speed_multiplier", "scale_multiplier"):
            value = getattr(self, name)
            if not 0 < value <= 4:
                raise DomainError(f"{name} must be in (0, 4], got {value}")


EXTRAVERT_ANCHOR = ParameterSet(
    max_rate=2.0,
    expanse_offset=0.0,
    height_offset=0.0,
    outwardness_offset=0.0,
    speed_multiplier=1.0,
    scale_multiplier=1.0,
)

INTROVERT_ANCHOR = ParameterSet(
    max_rate=1.0,
    expanse_offset=-10.0,
    height_offset=-5.0,
    outwardness_offset=-10.0,
    speed_multiplier=0.8,
    scale_multiplier=0.8,
)


def profile_from_extraversion(
    e: float,
    introvert: ParameterSet = INTROVERT_ANCHOR,
    extravert: ParameterSet = EXTRAVERT_ANCHOR,
) -> ParameterSet:
    """Linear interpolation between the anchors at e=1 and e=7, made once
    per score and pair of anchors: a ``ParameterSet`` is frozen.  The
    anchors' identities are part of the key, since equal anchors can differ
    in the sign of a zero, which the interpolation can hand on."""
    return _interpolate(e, introvert, extravert, id(introvert), id(extravert))


@lru_cache(maxsize=64)  # a key holds its anchors, so the ids in it stay theirs
def _interpolate(e: float, introvert: ParameterSet, extravert: ParameterSet, *_ids: int) -> ParameterSet:
    if not EXTRAVERSION_MIN <= e <= EXTRAVERSION_MAX:
        raise DomainError(f"extraversion must be in [1, 7], got {e}")
    t = (e - EXTRAVERSION_MIN) / (EXTRAVERSION_MAX - EXTRAVERSION_MIN)
    values = {}
    for f in fields(ParameterSet):
        a, b = getattr(introvert, f.name), getattr(extravert, f.name)
        # a weighted sum, never ``b - a``, which can overflow or cancel:
        # each anchor comes out exactly at its end of the scale
        values[f.name] = (1 - t) * a + t * b
    return ParameterSet(**values)


def _features_for(gesture_name: str, params: ParameterSet, catalog: GestureCatalog) -> Features:
    g = lookup(catalog, gesture_name)
    return new_features((
        g.base_expanse + params.expanse_offset,
        g.base_height + params.height_offset,
        g.base_outwardness + params.outwardness_offset,
        params.speed_multiplier,
        params.scale_multiplier,
    ))


def _rate_cap(params: ParameterSet) -> int:
    # round half up: a maximum rate of 1.5 allows 2 gestures per sentence
    return int(params.max_rate + 0.5)


def _cap_sentence(anns: list[GestureAnnotation], cap: int) -> set[int]:
    """Ids of annotations to drop so at most ``cap`` survive.

    Keeps the earliest strokes; copied gestures are never dropped while a
    non-copied one remains.
    """
    if len(anns) <= cap:
        return set()
    drop_order = sorted(anns, key=lambda a: (a.form_copied, -a.stroke_begin))
    return {id(a) for a in drop_order[: len(anns) - cap]}


def apply_personality(
    dialog: AnnotatedDialog,
    speaker: str,
    params: ParameterSet,
    catalog: GestureCatalog,
) -> AnnotatedDialog:
    """Stamp effective features on the speaker's annotations and enforce the
    per-sentence rate cap.

    Rate-added annotations are exempt from the cap (counted nor dropped):
    they only exist in adapted performances, whose extra gestures the
    adaptation stage owns.  Unknown gesture names (including alternatives,
    and those of annotations the cap drops) raise
    :class:`UnknownGestureError`, naming the turn by its label and the
    stroke time.
    """
    cap = _rate_cap(params)
    by_name: dict[str, Features] = {}  # one Features per gesture: the profile is fixed for the call
    new_turns: list[Turn] = []
    for turn in dialog.turns:
        if turn.speaker != speaker:
            new_turns.append(turn)
            continue
        to_drop: set[int] = set()
        if len(turn.annotations) > cap:  # else no sentence of the turn can pass the cap
            for _, bucket in segment_sentences(turn):
                to_drop |= _cap_sentence([a for a in bucket if not a.rate_added], cap)
        kept = []
        for ann in turn.annotations:  # a dropped annotation's names are checked too
            try:
                features = by_name.get(ann.gesture_name) or by_name.setdefault(
                    ann.gesture_name, _features_for(ann.gesture_name, params, catalog)
                )
                alt_features = None
                if ann.alternative is not None:
                    alt = ann.alternative.gesture_name
                    alt_features = by_name.get(alt) or by_name.setdefault(alt, _features_for(alt, params, catalog))
            except UnknownGestureError as exc:
                raise UnknownGestureError(f"{turn_label(dialog, turn)}: {exc} at {ann.stroke_begin:.2f}s") from None
            if id(ann) not in to_drop:  # the fields up to word_index, then the stamped features
                kept.append(new_annotation(ann[:8] + (features, alt_features)))
        new_turns.append(new_turn(turn[:3] + (tuple(kept),)))
    return dialog._replace(turns=tuple(new_turns))
