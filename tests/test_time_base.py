"""``emitter.to_ms`` gives what the decimal rule ``round(round(s, 3) * 1000)``
gives, on the times both shipped builds schedule and on the values its
fast path could get wrong: half milliseconds and their neighbours, products
within 1e-5 ms of a half millisecond, sums of the scheduler's form,
negatives, signed zeros, values at and beyond ``2**31`` ms, nan and
infinities.  The data are fixed-seed.

The module needs only the standard library, so it also runs as a plain
script::

    PYTHONPATH=src python tests/test_time_base.py
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import gesturec.scheduler
from gesturec.align import parse_word_timings
from gesturec.catalog import load_catalog
from gesturec.dsl import parse_dialog
from gesturec.emitter import to_ms
from gesturec.stimuli import run_adaptation_batch, run_personality_batch

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "gesturec" / "data"


def rule(seconds: float) -> int:
    return round(round(seconds, 3) * 1000)


def near_tie(seconds: float) -> bool:
    """Whether ``seconds * 1000`` lies within 1e-6 of a half millisecond."""
    x = seconds * 1000
    return abs(abs(x - round(x)) - 0.5) <= 1e-6


def neighbours(x: float, ulps: int = 4) -> list[float]:
    """``x`` and the floats up to ``ulps`` steps below and above it."""
    below, above, out = x, x, [x]
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def outcome(convert, seconds):
    """The type and value ``convert(seconds)`` returns, or the type of what it raises."""
    try:
        ms = convert(seconds)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return type(ms), ms


def assert_rule(values) -> None:
    pairs = ((s, outcome(to_ms, s), outcome(rule, s)) for s in values)
    assert [pair for pair in pairs if pair[1] != pair[2]] == []


def scheduled_seconds() -> list[float]:
    """Every value the scheduler turns into milliseconds while both shipped
    builds run: stroke starts, stroke ends, retract ends and the run values."""
    catalog = load_catalog((DATA_DIR / "catalog.txt").read_text(encoding="utf-8"))
    stories = {
        path.stem: (
            parse_dialog(path.read_text(encoding="utf-8"), story_id=path.stem),
            parse_word_timings((DATA_DIR / "timings" / f"{path.stem}.tsv").read_text(encoding="utf-8")),
        )
        for path in sorted((DATA_DIR / "stories").glob("*.dialog"))
    }
    seen = []
    real = gesturec.scheduler.to_ms

    def recording(seconds):
        seen.append(seconds)
        return real(seconds)

    gesturec.scheduler.to_ms = recording
    try:
        run_personality_batch(stories, catalog)
        run_adaptation_batch(stories, catalog)
    finally:
        gesturec.scheduler.to_ms = real
    return seen


def test_every_time_the_shipped_builds_schedule():
    seen = scheduled_seconds()
    assert_rule(seen)
    # 15 stroke ends at speed 0.8 or 1.25 lie on a half millisecond, and so do their retract ends
    ties = sorted({s for s in seen if near_tie(s)})
    assert len(ties) == 30
    assert sum(t + 0.5 in ties for t in ties) == 15


def test_half_milliseconds_and_the_floats_around_them():
    rng = random.Random(30)
    ks = [*range(-1000, 1000), *(rng.randrange(-10**9, 10**9) for _ in range(2000))]
    values = [v for k in ks for v in neighbours((k + 0.5) / 1000)]
    assert sum(map(near_tie, values)) > len(ks)  # most of them take the rule itself
    assert_rule(values)


def test_products_within_1e_5_ms_of_a_half_millisecond():
    # the fast path's band edge is 1e-6 ms from each half: step across it
    # from both sides, at distances up to 1e-5 ms
    rng = random.Random(33)
    ks = [*range(-500, 500), *(rng.randrange(-2**31, 2**31) for _ in range(1000))]
    offsets = [d * sign for d in (0, 1e-7, 9e-7, 1e-6, 1.1e-6, 2e-6, 5e-6, 1e-5) for sign in (1, -1)]
    values = [v for k in ks for half in (0.5, -0.5) for d in offsets for v in neighbours((k + half + d) / 1000, 1)]
    assert 0 < sum(map(near_tie, values)) < len(values)  # both paths are taken
    assert_rule(values)


def test_the_scheduler_form_negatives_and_signed_zeros():
    rng = random.Random(31)
    values = [0.0, -0.0, 0, 1, -1, True, 5e-324, -5e-324]
    for _ in range(8000):
        begin = rng.randrange(0, 10**6) / 100
        duration = rng.randrange(1, 400) / 100
        speed = rng.choice((0.8, 1.0, 1.25, 1000.0, rng.uniform(0.05, 4), round(rng.uniform(0.05, 4), 3)))
        end = begin + duration / speed
        values += [begin, end, end + 0.5, -end, rng.uniform(-1e6, 1e6)]
    assert_rule(values)
    assert math.copysign(1, to_ms(-0.0)) == 1 and type(to_ms(-0.0)) is int


def test_values_at_and_beyond_the_fast_range():
    rng = random.Random(32)
    edge = 2.0**31 / 1000
    values = [*neighbours(edge, 16), *neighbours(-edge, 16), *neighbours((2**31 - 0.5) / 1000, 16)]
    values += [rng.uniform(edge, 1e12) * rng.choice((1, -1)) for _ in range(2000)]
    values += [1e15, 1e300, -1e300, 10**30, 2**31, -(2**31)]
    assert_rule(values)
    assert outcome(to_ms, 1.7976931348623157e308) == OverflowError  # the product overflows


def test_nan_and_infinities_raise_as_the_rule_raises():
    assert [outcome(to_ms, value) for value in (math.nan, math.inf, -math.inf)] == [
        ValueError, OverflowError, OverflowError,
    ]
    assert_rule([math.nan, math.inf, -math.inf])


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
