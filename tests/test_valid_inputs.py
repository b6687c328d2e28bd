"""Valid inputs: every dialog the generators make compiles in strict mode
or is refused with a ``GesturecError``, and lenient mode agrees.

Where strict mode compiles, lenient mode writes the same bytes with no
diagnostic.  Where strict mode refuses a stroke, lenient mode drops at
least one with a diagnostic.  Every script either mode writes reads back
to its bytes.  Dialogs come from ``make_random_dialog`` (untimed) and
``make_aligned_pair`` (with its timing track), under non-integer
extraversions, adaptation factors and both variants, drawn from a fixed
seed.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_aligned_pair, make_random_dialog
from gesturec.adaptation import AdaptationSpec
from gesturec.dsl import format_dialog
from gesturec.emitter import emit_document, read_script
from gesturec.errors import GesturecError, ScheduleError
from gesturec.pipeline import PipelineSettings, compile_dialog
from gesturec.stimuli import speaker_scripts

EXTRAVERSION = st.floats(min_value=1.0, max_value=7.0)
ADAPTATION = st.builds(
    AdaptationSpec,
    expanse_delta=st.floats(0.0, 30.0),
    height_delta=st.floats(0.0, 20.0),
    outwardness_delta=st.floats(0.0, 20.0),
    # a large factor squeezes strokes below a millisecond, which strict mode refuses
    speed_factor=st.one_of(st.floats(1.0, 3.0), st.sampled_from([100.0, 1000.0])),
    scale_factor=st.floats(1.0, 3.0),
)


def _compile(source, catalog, track, settings, variant):
    """The script files and diagnostics of one compile, or the error it raised."""
    try:
        result = compile_dialog(source, catalog, timings=track, settings=settings, variant=variant).schedule
    except GesturecError as exc:
        return exc
    return speaker_scripts(result), result.diagnostics


@given(
    seed=st.integers(0, 10**6),
    aligned=st.booleans(),
    a=EXTRAVERSION,
    b=EXTRAVERSION,
    adaptation=ADAPTATION,
    variant=st.sampled_from(["adapted", "nonadapted"]),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_strict_and_lenient_modes_agree_on_valid_dialogs(catalog, seed, aligned, a, b, adaptation, variant):
    rng = random.Random(seed)
    if aligned:
        dialog, track, _ = make_aligned_pair(rng)
    else:
        dialog, track = make_random_dialog(rng), None
    source = format_dialog(dialog)
    strict_settings = PipelineSettings(extraversion={"A": a, "B": b}, adaptation=adaptation, strict=True)
    strict = _compile(source, catalog, track, strict_settings, variant)
    lenient = _compile(source, catalog, track, dataclasses.replace(strict_settings, strict=False), variant)
    if isinstance(strict, ScheduleError):
        assert not isinstance(lenient, GesturecError), lenient
        scripts, diagnostics = lenient
        assert diagnostics[0] == f"dropped: {strict}"
    elif isinstance(strict, GesturecError):  # refused before scheduling: lenient mode refuses alike
        assert type(lenient) is type(strict) and str(lenient) == str(strict)
        return
    else:
        scripts, diagnostics = strict
        assert lenient == (scripts, [])
    for name, data in scripts.items():
        assert emit_document(read_script(data), "json" if name.endswith(".json") else "text") == data, name
