from __future__ import annotations

import random
import time

import pytest

from conftest import make_aligned_pair
from gesturec.align import TimedWord, align_strokes, parse_word_timings
from gesturec.dsl import AnnotatedDialog, GestureAnnotation, Turn, parse_dialog
from gesturec.errors import (
    AlignError,
    NoFollowingWordError,
    StrokeCollisionError,
    TimingError,
    TimingFormatError,
    TimingOrderError,
    WordMismatchError,
)
from gesturec.emitter import to_ms
from gesturec.scheduler import SchedulerConfig


def test_parse_single_line():
    track = parse_word_timings("1\tHey\t2.10\n")
    entry = track.entries[0]
    assert (entry.turn_index, entry.word, entry.onset) == (1, "Hey", 2.10)


def test_timed_word_is_value_object():
    word = parse_word_timings("1\tHey\t2.10\n").entries[0]
    assert word == TimedWord(turn_index=1, word="Hey", onset=2.10)
    assert word != TimedWord(1, "Hey", 2.11)
    assert hash(word) == hash(TimedWord(1, "Hey", 2.10))
    assert len({word, TimedWord(1, "Hey", 2.10)}) == 1
    with pytest.raises(AttributeError):
        word.onset = 0.0


def test_parse_empty_file():
    with pytest.raises(TimingError):
        parse_word_timings("")


def test_parse_bad_field_count():
    with pytest.raises(TimingFormatError):
        parse_word_timings("1\tHey\n")


def test_parse_decreasing_across_turns():
    with pytest.raises(TimingOrderError):
        parse_word_timings("1\tone\t2.00\n2\ttwo\t1.50\n")


def test_parse_non_increasing_within_turn():
    with pytest.raises(TimingOrderError):
        parse_word_timings("1\tone\t2.00\n1\ttwo\t2.00\n")


@pytest.mark.parametrize("onset", ["nan", "inf", "-inf", "-3.0"])
def test_parse_rejects_non_finite_and_negative_onsets(onset):
    with pytest.raises(TimingFormatError, match=f"line 2: onset '{onset}' is not a finite number >= 0"):
        parse_word_timings(f"1\tone\t1.00\n1\ttwo\t{onset}\n1\tthree\t2.00\n")


@pytest.mark.parametrize("turn_index", ["1_0", "+1", " 1", "1 ", "0", "\u0661"])  # U+0661 is an Arabic-Indic 1
def test_parse_refuses_a_turn_index_not_in_plain_decimal_digits(turn_index):
    with pytest.raises(TimingFormatError) as err:
        parse_word_timings(f"1\tone\t1.00\n{turn_index}\ttwo\t3.00\n")
    assert str(err.value) == f"line 2: turn index {turn_index!r} is not a decimal whole number >= 1"


@pytest.mark.parametrize("onset", ["1_0.5", "1e1", "+3.00", "3.00 ", " 3.00", "1.2.3", ".", "0x10", "\u0663", pytest.param("9" * 309, id="inf")])
def test_parse_refuses_an_onset_not_in_plain_decimal_digits(onset):
    with pytest.raises(TimingFormatError) as err:
        parse_word_timings(f"1\tone\t1.00\n1\ttwo\t{onset}\n")
    assert str(err.value) == f"line 2: onset {onset!r} is not a finite number >= 0 in decimal digits"


@pytest.mark.parametrize("word", ["", " hello", "hel lo", "hello\xa0", "one two."])
def test_parse_refuses_a_word_that_is_empty_or_holds_whitespace(word):
    with pytest.raises(TimingFormatError) as err:
        parse_word_timings(f"1\tone\t1.00\n1\t{word}\t3.00\n")
    assert str(err.value) == f"line 2: word {word!r} is empty or holds whitespace"


def test_parse_reads_plain_decimal_digits():
    track = parse_word_timings("1\tone\t1\n01\ttwo\t1.5\n10\tthree\t012.250\n10\tfour\t13.\n")
    assert [tuple(e) for e in track.entries] == [(1, "one", 1.0), (1, "two", 1.5), (10, "three", 12.25), (10, "four", 13.0)]


@pytest.mark.parametrize("source,entries,onsets,texts", [
    pytest.param(  # turn 1 resumed after turn 2 goes on with turn 1's words
        "1\ta\t1.0\n2\tb\t2.0\n1\tc\t3.0\n",
        [(1, "a", 1.0), (1, "c", 3.0), (2, "b", 2.0)],
        {1: (1.0, 3.0), 2: (2.0,)},
        {1: "a c", 2: "b"},
        id="resumed-turn",
    ),
    pytest.param(  # "1" and "01" are one turn
        "1\ta\t1.0\n01\tb\t2.0\n1\tc\t3.0\n",
        [(1, "a", 1.0), (1, "b", 2.0), (1, "c", 3.0)],
        {1: (1.0, 2.0, 3.0)},
        {1: "a b c"},
        id="leading-zero",
    ),
    pytest.param(
        "1\ta\t1.0\n# note\n\n  \t \n  # indented note\n1\tb\t2.0\n2\ta\t3.0\n",
        [(1, "a", 1.0), (1, "b", 2.0), (2, "a", 3.0)],
        {1: (1.0, 2.0), 2: (3.0,)},
        {1: "a b", 2: "a"},
        id="comment-and-blanks-inside-a-run",
    ),
    pytest.param(  # a comment with three fields is still a comment
        "1\ta\t1.0\n# a\tnote\there\n1\tb\t2.0\n",
        [(1, "a", 1.0), (1, "b", 2.0)],
        {1: (1.0, 2.0)},
        {1: "a b"},
        id="comment-with-two-tabs-inside-a-run",
    ),
])
def test_parse_reads_runs_of_a_turn(source, entries, onsets, texts):
    track = parse_word_timings(source)
    assert [tuple(e) for e in track.entries] == entries
    assert track.onset_index == onsets
    assert track.text_index == texts


def test_parse_tracks_are_equal_by_their_turns_onsets_and_texts():
    resumed = parse_word_timings("1\ta\t1.0\n2\tb\t2.0\n1\tc\t2.0\n")
    assert resumed == parse_word_timings("1\ta\t1.0\n1\tc\t2.0\n2\tb\t2.0\n")
    assert resumed != parse_word_timings("1\ta\t1.0\n2\tb\t2.0\n1\tc\t2.5\n")
    assert resumed != parse_word_timings("1\ta\t1.0\n2\tb\t2.0\n1\td\t2.0\n")


@pytest.mark.parametrize("source,error,message", [
    pytest.param(  # the resumed turn's own last onset, not turn 2's, is the one to pass
        "1\ta\t1.0\n2\tb\t1.0\n1\tc\t1.0\n", TimingOrderError, "line 3: onset 1.0 not increasing within turn 1",
        id="resumed-turn",
    ),
    pytest.param(
        "2\ta\t1.0\n1\tb\t2.0\n2\tc\t1.5\n", TimingOrderError, "line 3: onset 1.5 decreases across the track",
        id="resumed-turn-decreasing",
    ),
    pytest.param(
        "1\ta\t1.0\n01\tb\t1.0\n", TimingOrderError, "line 2: onset 1.0 not increasing within turn 1",
        id="leading-zero",
    ),
    pytest.param(
        "1\ta\t1.0\n01\tb\t2.0\n0\tc\t3.0\n", TimingFormatError,
        "line 3: turn index '0' is not a decimal whole number >= 1",
        id="zero-after-a-run",
    ),
    pytest.param(  # a word with whitespace after valid repeats of other words
        "1\tyes\t1.0\n1\tno\t2.0\n1\tyes\t3.0\n2\tno\t4.0\n2\tno go\t5.0\n", TimingFormatError,
        "line 5: word 'no go' is empty or holds whitespace",
        id="bad-word-after-repeats",
    ),
    pytest.param(
        "1\tyes\t1.0\n1\tyes\t2.0\n1\t\t3.0\n", TimingFormatError, "line 3: word '' is empty or holds whitespace",
        id="empty-word-after-repeats",
    ),
    pytest.param(  # line numbers count the comment and blank lines inside the run
        "1\ta\t1.0\n# note\n\n1\tb\t0.5\n", TimingOrderError, "line 4: onset 0.5 decreases across the track",
        id="comment-inside-a-run",
    ),
    pytest.param(
        "1\ta\t1.0\n\n 1\tb\t2.0\n", TimingFormatError, "line 3: turn index ' 1' is not a decimal whole number >= 1",
        id="indented-line-inside-a-run",
    ),
    pytest.param(
        "1\ta\t1.0\n1 # note\n", TimingFormatError, "line 2: expected 3 tab-separated fields",
        id="digit-line-without-tabs",
    ),
    pytest.param(
        "1\ta\t1.0\n1\tb\t2.0\textra\n", TimingFormatError, "line 2: expected 3 tab-separated fields",
        id="four-fields-inside-a-run",
    ),
    pytest.param(
        "1\ta\t1.0\n1\n", TimingFormatError, "line 2: expected 3 tab-separated fields",
        id="turn-field-alone-inside-a-run",
    ),
])
def test_parse_refuses_a_run_of_a_turn_as_it_refuses_each_line(source, error, message):
    with pytest.raises(error) as err:
        parse_word_timings(source)
    assert type(err.value) is error
    assert str(err.value) == message


def test_cup_aligns_to_hey():
    dialog = parse_dialog("A1: [1.70s](Cup, RH 0.46s) Hey, there.\n")
    track = parse_word_timings("1\tHey,\t2.10\n1\tthere.\t2.60\n")
    aligned = align_strokes(dialog, track)
    assert aligned.turns[0].annotations[0].stroke_begin == 1.90


def test_fixture_alignment_is_noop(stories):
    # every shipped stroke is written exactly the lead before its word, inside
    # that word's window, so alignment moves none of them
    assert sorted(stories) == ["garden", "pet", "protest", "storm"]
    for story_id, (dialog, track) in stories.items():
        assert align_strokes(dialog, track) == dialog, story_id


def test_alignment_hands_on_what_it_does_not_move():
    dialog = parse_dialog(
        "A1: [1.90s](Cup, RH 0.46s) Hey, [2.40s](Reject, RH 0.44s) there.\n"
        "B1: [2.90s](Cup, LH 0.46s) one [3.20s](Reject, RH 0.44s) two.\n"
    )
    track = parse_word_timings("1\tHey,\t2.10\n1\tthere.\t2.60\n2\tone\t3.10\n2\ttwo.\t3.60\n")
    aligned = align_strokes(dialog, track)
    # turn 1 is written at the lead: the turn and its annotations are handed on
    assert aligned.turns[0] is dialog.turns[0]
    # in turn 2 only the second stroke moves, from 3.20 to 3.40
    first, second = aligned.turns[1].annotations
    assert first is dialog.turns[1].annotations[0]
    assert second == dialog.turns[1].annotations[1]._replace(stroke_begin=3.40)
    assert aligned.turns[1] == dialog.turns[1]._replace(annotations=(first, second))


def test_clamp_at_zero():
    dialog = parse_dialog("A1: [0.00s](Cup, RH 0.46s) hi there.\n")
    track = parse_word_timings("1\thi\t0.10\n1\tthere.\t0.60\n")
    aligned = align_strokes(dialog, track)
    assert aligned.turns[0].annotations[0].stroke_begin == 0.0


def test_two_annotations_to_one_word_collide():
    source = "A1: [0.10s](Cup, RH 0.46s) [0.20s](Reject, RH 0.44s) word here.\n"
    dialog = parse_dialog(source)
    track = parse_word_timings("1\tword\t1.00\n1\there.\t1.50\n")
    with pytest.raises(StrokeCollisionError):
        align_strokes(dialog, track)


def test_annotation_after_last_word():
    dialog = parse_dialog("A1: one two. [5.00s](Cup, RH 0.46s)\n")
    track = parse_word_timings("1\tone\t1.00\n1\ttwo.\t1.40\n")
    with pytest.raises(NoFollowingWordError):
        align_strokes(dialog, track)


def test_annotation_before_no_word_of_its_turn():
    # the time lies in the window of the turn's last word, which a negative
    # index would pick by Python's indexing
    dialog = parse_dialog("A1: one [1.20s](Cup, RH 0.46s) two.\n")
    turn = dialog.turns[0]
    moved = turn._replace(annotations=(turn.annotations[0]._replace(word_index=-1),))
    track = parse_word_timings("1\tone\t1.00\n1\ttwo.\t1.50\n")
    with pytest.raises(NoFollowingWordError):
        align_strokes(dialog._replace(turns=(moved,)), track)


def test_turn_without_timing_entries():
    dialog = parse_dialog("A1: one.\nB1: two.\n")
    track = parse_word_timings("1\tone.\t1.00\n")
    with pytest.raises(NoFollowingWordError):
        align_strokes(dialog, track)


@pytest.mark.parametrize("third_turn, third_track, error, message", [
    ("three.", "", NoFollowingWordError, "no timing entries with turn index 3"),
    (
        "three.", "3\tthre.\t3.00\n",
        WordMismatchError, "word 0 is 'three.' in the dialog but 'thre.' in the timing track",
    ),
    (
        "three. [5.00s](Cup, RH 0.46s)", "3\tthree.\t3.00\n",
        NoFollowingWordError, "annotation at 5.00s has no following word",
    ),
    (
        "[3.50s](Cup, RH 0.46s) three.", "3\tthree.\t3.00\n",
        WordMismatchError,
        "the stroke at 3.50s is written before word 0 'three.', so it must fall before 'three.' at 3.0s",
    ),
    (
        "[2.90s](Cup, RH 0.46s) [2.95s](Reject, RH 0.44s) three.", "3\tthree.\t3.00\n",
        StrokeCollisionError, "aligned strokes collide at 2.800s",
    ),
])
def test_an_alignment_error_names_the_turn_label_and_the_story(third_turn, third_track, error, message):
    # the third turn is A's second: its label, not its index, names it
    dialog = parse_dialog(f"story: garden\nA1: one.\nB1: two.\nA2: {third_turn}\n")
    track = parse_word_timings("1\tone.\t1.00\n2\ttwo.\t2.00\n" + third_track)
    with pytest.raises(error) as err:
        align_strokes(dialog, track)
    assert str(err.value) == f"turn A2: {message}"


def test_custom_lead():
    dialog = parse_dialog("A1: [1.00s](Cup, RH 0.46s) word.\n")
    track = parse_word_timings("1\tword.\t2.00\n")
    aligned = align_strokes(dialog, track, lead=0.5)
    assert aligned.turns[0].annotations[0].stroke_begin == 1.5


def test_default_lead_is_the_scheduler_setting():
    dialog = parse_dialog("A1: [1.00s](Cup, RH 0.46s) word.\n")
    track = parse_word_timings("1\tword.\t2.00\n")
    aligned = align_strokes(dialog, track)
    assert aligned.turns[0].annotations[0].stroke_begin == 2.0 - SchedulerConfig().stroke_lead_s


def test_an_onset_off_the_millisecond_grid_is_refused():
    # 1.0635 * 1000 is 1063.5 in floating point, which round() takes up to
    # 1064; round(1.0635, 3) is 1.063, the scheduler's 1063 ms.  Either way
    # the stroke would begin 199.5 or 200.5 ms before its word, not the lead.
    assert to_ms(1.0635) == 1063
    dialog = parse_dialog("story: s\nA1: [0.50s](Cup, RH 0.46s) one\n")
    with pytest.raises(AlignError) as err:
        align_strokes(dialog, parse_word_timings("1\tone\t1.0635\n"))
    assert str(err.value) == "turn A1: word 0 'one' has onset 1.0635s, off the millisecond grid"
    # an onset that times no stroke may lie off the grid
    dialog = parse_dialog("A1: [0.50s](Cup, RH 0.46s) one two\n")
    aligned = align_strokes(dialog, parse_word_timings("1\tone\t1.063\n1\ttwo\t1.0635\n"))
    assert aligned.turns[0].annotations[0].stroke_begin == 0.863


def test_generated_pairs_exact_lead_and_idempotent():
    lead_ms = 200
    for seed in range(300):
        dialog, track, _ = make_aligned_pair(random.Random(seed))
        aligned = align_strokes(dialog, track)
        for turn in aligned.turns:
            onsets = track.turn_onsets(turn.index)
            last = -1.0
            for ann in turn.annotations:
                following = next(o for o in onsets if o > ann.stroke_begin)
                if ann.stroke_begin > 0:
                    assert round(following * 1000) - round(ann.stroke_begin * 1000) == lead_ms
                assert ann.stroke_begin > last
                last = ann.stroke_begin
        # word gaps exceed the lead, so realignment targets the same words
        again = align_strokes(aligned, track)
        assert again == aligned


def _timed_rows(tsv):
    """The ``(turn, word, onset)`` rows of a timing track that holds no
    comment or blank line, read without :func:`parse_word_timings`."""
    rows = (line.split("\t") for line in tsv.splitlines())
    return [(int(turn), word, float(onset)) for turn, word, onset in rows]


def _reference_align(dialog, tsv):
    """The alignment rule as a linear scan of the timing track's rows: new
    stroke begins per turn, or the error :func:`align_strokes` must raise.
    The track's words must be the turn's, and the first word timed after a
    stroke's written time must be the word it is written before."""
    rows = _timed_rows(tsv)
    begins = []
    for turn in dialog.turns:
        timed = [(word, onset) for index, word, onset in rows if index == turn.index]
        if not timed:
            return NoFollowingWordError
        if [word for word, _ in timed] != turn.text.split():
            return WordMismatchError
        turn_begins = []
        for ann in turn.annotations:
            if not 0 <= ann.word_index < len(timed):
                return NoFollowingWordError
            following = next((k for k, (_, onset) in enumerate(timed) if onset > ann.stroke_begin), None)
            if following != ann.word_index:
                return WordMismatchError
            begin_ms = max(0, round(timed[following][1] * 1000) - 200)
            if turn_begins and begin_ms <= turn_begins[-1]:
                return StrokeCollisionError
            turn_begins.append(begin_ms)
        begins.append([ms / 1000 for ms in turn_begins])
    return begins


def _align_outcome(dialog, track):
    try:
        aligned = align_strokes(dialog, track)
    except (NoFollowingWordError, StrokeCollisionError, WordMismatchError) as exc:
        return type(exc)
    return [[a.stroke_begin for a in t.annotations] for t in aligned.turns]


def _moved(rng, dialog, tsv):
    """``dialog`` with its strokes moved to times drawn near and on the
    onsets of the timing track ``tsv``, before the first word and past the last, and some of
    them written before another word, a word already taken or no word."""
    rows = _timed_rows(tsv)
    turns = []
    for turn in dialog.turns:
        onsets = [onset for index, _, onset in rows if index == turn.index]
        times = set()
        for _ in turn.annotations:
            pick = rng.random()
            if pick < 0.3:
                times.add(rng.choice(onsets))
            elif pick < 0.9:
                times.add(round(rng.choice(onsets) + rng.uniform(-0.4, 0.4), 2))
            elif pick < 0.95:
                times.add(round(onsets[0] - 0.05, 2))
            else:
                times.add(round(onsets[-1] + 0.05, 2))
        times = sorted(t for t in times if t >= 0)
        word_indices = sorted(
            rng.randint(0, len(onsets)) if rng.random() < 0.3 else a.word_index for a in turn.annotations
        )
        annotations = tuple(
            a._replace(stroke_begin=t, word_index=wi)
            for a, t, wi in zip(turn.annotations, times, word_indices)
        )
        turns.append(turn._replace(annotations=annotations))
    return dialog._replace(turns=tuple(turns))


def test_alignment_matches_reference_scan_on_generated_pairs():
    outcomes = set()
    for seed in range(300):
        rng = random.Random(seed)
        dialog, track, tsv = make_aligned_pair(rng)
        for case in (dialog, _moved(rng, dialog, tsv)):
            expected = _reference_align(case, tsv)
            assert _align_outcome(case, track) == expected, seed
            outcomes.add(expected if isinstance(expected, type) else list)
    # the moved strokes reach every error as well as success
    assert outcomes == {list, NoFollowingWordError, StrokeCollisionError, WordMismatchError}


@pytest.mark.parametrize("dialog_source,track_source,expected", [
    # exactly on an onset: the following word is the next one
    ("A1: one [1.00s](Cup, RH 0.46s) two.\n", "1\tone\t1.00\n1\ttwo.\t1.50\n", [[1.3]]),
    # exactly on the onset of the word it is written before
    ("A1: [1.00s](Cup, RH 0.46s) one two.\n", "1\tone\t1.00\n1\ttwo.\t1.50\n", WordMismatchError),
    # before the first word
    ("A1: [0.10s](Cup, RH 0.46s) one two.\n", "1\tone\t1.00\n1\ttwo.\t1.50\n", [[0.8]]),
    # after the last word
    ("A1: one two. [2.00s](Cup, RH 0.46s)\n", "1\tone\t1.00\n1\ttwo.\t1.50\n", NoFollowingWordError),
    # a turn missing from the track
    (
        "A1: [0.50s](Cup, RH 0.46s) one.\nB1: [2.00s](Cup, RH 0.46s) two.\n",
        "1\tone.\t1.00\n",
        NoFollowingWordError,
    ),
    # the track's words differ from the turn's
    ("A1: [0.50s](Cup, RH 0.46s) one two.\n", "1\tone\t1.00\n1\ttwo\t1.50\n", WordMismatchError),
    # the track times a turn past the dialog's last
    ("A1: [0.50s](Cup, RH 0.46s) one.\n", "1\tone.\t1.00\n2\ttwo.\t2.00\n", [[0.8]]),
    # turn indices interleave along the track
    (
        "A1: [0.50s](Cup, RH 0.46s) one [1.60s](Reject, RH 0.44s) three.\n"
        "B1: [1.20s](Cup, RH 0.46s) two [2.00s](Reject, RH 0.44s) four.\n",
        "1\tone\t1.00\n2\ttwo\t1.50\n1\tthree.\t2.00\n2\tfour.\t2.50\n",
        [[0.8, 1.8], [1.3, 2.3]],
    ),
])
def test_alignment_matches_reference_scan_on_edge_cases(dialog_source, track_source, expected):
    dialog = parse_dialog(dialog_source)
    assert _reference_align(dialog, track_source) == expected
    assert _align_outcome(dialog, parse_word_timings(track_source)) == expected


def _long_pair(turns, words_per_turn=20):
    """A dialog of ``turns`` turns with two strokes each, and its track."""
    dialog_turns, tsv = [], []
    onset = 1.0
    for index in range(1, turns + 1):
        onsets = []
        for w in range(words_per_turn):
            onsets.append(onset)
            tsv.append(f"{index}\tw{w}\t{onset:.2f}")
            onset = round(onset + 0.3, 2)
        annotations = tuple(
            GestureAnnotation(round(onsets[wi] - 0.1, 2), "Cup", "RH", 0.46, word_index=wi)
            for wi in (3, 12)
        )
        text = " ".join(f"w{w}" for w in range(words_per_turn))
        dialog_turns.append(Turn("AB"[(index - 1) % 2], index, text, annotations))
        onset = round(onset + 1.0, 2)
    dialog = AnnotatedDialog(story_id="long", turns=tuple(dialog_turns), audio_duration=onset + 3.0)
    return dialog, parse_word_timings("\n".join(tsv) + "\n")


def _best_align_seconds(dialog, track, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        align_strokes(dialog, track)
        best = min(best, time.perf_counter() - start)
    return best


def test_alignment_time_grows_linearly():
    # 16x the turns costs about 16x the time when alignment is linear in
    # words plus annotations, and about 256x when it is quadratic
    small = _best_align_seconds(*_long_pair(32))
    large = _best_align_seconds(*_long_pair(32 * 16))
    assert large / small < 64
