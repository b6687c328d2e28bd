"""Survey scoring and experiment statistics.

Covers the judgment-data pipeline: TIPI personality scoring, per-version
preference counts, the one-sample t test against chance, between-subjects
factorial ANOVA, and the why-category percentages.

Judgment CSV format: ``subject_id,stimulus_id,kind,payload`` where payload
depends on ``kind``:

* ``tipi``: ten pipe-separated item scores, each ASCII digits with a value
  from 1 to 7;
* ``preference``: ``A`` (adapted) or ``NA`` (non-adapted);
* ``why``: pipe-separated labels from ``WHY_CATEGORIES``, possibly empty.

The first row may be a header, blank rows and rows whose first column
starts with ``#`` are skipped, and each column is stripped of surrounding
whitespace.  ``read_judgments`` checks each distinct TIPI item text and
each distinct why payload once per call, in tables that live for that call.
``anova`` fits its model from the cell counts and sums of the observations,
so the module, like the whole package, needs nothing beyond the standard
library.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import pauses_gc
from .errors import DomainError, EmptyCellError, StatError
from .special import f_sf, student_t_two_tailed

TIPI_TRAITS = ("extraversion", "agreeableness", "conscientiousness", "emotional_stability", "openness")

WHY_CATEGORIES = (
    "adapted_good_gestures",
    "nonadapted_good_gestures",
    "adapted_animated",
    "nonadapted_realistic",
    "other",
)

_WHY_LABELS = frozenset(WHY_CATEGORIES)

PREFERENCE_CHOICES = ("A", "NA")

# a TIPI item: ASCII digits with a value from 1 to 7 (leading zeros allowed)
_TIPI_ITEM_RE = re.compile(r"0*[1-7]")


class _TipiItems(dict):
    """TIPI item text -> its score, each text checked on its first lookup;
    a text that is no item raises ``KeyError`` and is not stored."""

    def __missing__(self, text: str) -> int:
        if _TIPI_ITEM_RE.fullmatch(text) is None:
            raise KeyError(text)
        score = self[text] = int(text)
        return score


class JudgmentRecord(NamedTuple):
    subject_id: str
    stimulus_id: str
    kind: str
    tipi_items: tuple[int, ...] | None = None
    choice: str | None = None
    why: frozenset[str] | None = None


@dataclass(frozen=True)
class StatResult:
    name: str
    value: float
    df: tuple[float, ...]
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise StatError(f"p-value out of [0, 1]: {self.p_value}")


@pauses_gc
def read_judgments(source: str) -> list[JudgmentRecord]:
    """The records of a judgment CSV, in row order; a bad row raises
    :class:`DomainError` naming its row.  Each distinct TIPI item text and
    each distinct why payload is checked once per call: the tables that
    remember them live for this call only."""
    records: list[JudgmentRecord] = []
    append = records.append
    tipi_item = _TipiItems().__getitem__
    why_labels: dict[str, frozenset[str]] = {}  # why payload -> its checked labels
    reader = csv.reader(io.StringIO(source))
    for row_number, row in enumerate(reader, start=1):
        if not row or row[0].startswith("#"):
            continue
        if row_number == 1 and [c.strip() for c in row[:3]] == ["subject_id", "stimulus_id", "kind"]:
            continue
        if len(row) != 4:
            raise DomainError(f"row {row_number}: expected 4 columns, got {len(row)}")
        subject_id, stimulus_id, kind, payload = row
        subject_id = subject_id.strip()
        stimulus_id = stimulus_id.strip()
        kind = kind.strip()
        payload = payload.strip()
        if kind == "tipi":
            try:
                scores = tuple(map(tipi_item, payload.split("|")))
            except KeyError:
                scores = ()
            if len(scores) != 10:
                raise DomainError(f"row {row_number}: bad tipi payload {payload!r}")
            append(JudgmentRecord(subject_id, stimulus_id, kind, scores))
        elif kind == "preference":
            if payload not in PREFERENCE_CHOICES:
                raise DomainError(f"row {row_number}: preference must be A or NA, got {payload!r}")
            append(JudgmentRecord(subject_id, stimulus_id, kind, None, payload))
        elif kind == "why":
            labels = why_labels.get(payload)
            if labels is None:
                labels = frozenset(filter(None, payload.split("|")))
                if not labels <= _WHY_LABELS:
                    raise DomainError(f"row {row_number}: unknown why categories {sorted(labels - _WHY_LABELS)}")
                why_labels[payload] = labels
            append(JudgmentRecord(subject_id, stimulus_id, kind, None, None, labels))
        else:
            raise DomainError(f"row {row_number}: unknown record kind {kind!r}")
    return records


def tipi_score(items: Sequence[int]) -> dict[str, float]:
    """Five trait scores from the ten 7-point items.

    Each trait is the mean of its direct item and its reverse-scored
    partner (reverse: 8 - score); ``iN`` is item N of the instrument.
    """
    if len(items) != 10:
        raise DomainError(f"expected 10 items, got {len(items)}")
    i1, i2, i3, i4, i5, i6, i7, i8, i9, i10 = items
    if not (1 <= i1 <= 7 and 1 <= i2 <= 7 and 1 <= i3 <= 7 and 1 <= i4 <= 7 and 1 <= i5 <= 7
            and 1 <= i6 <= 7 and 1 <= i7 <= 7 and 1 <= i8 <= 7 and 1 <= i9 <= 7 and 1 <= i10 <= 7):
        item = next(item for item in items if not 1 <= item <= 7)
        raise DomainError(f"item scores must be in [1, 7], got {item}")
    return {
        "extraversion": (i1 + (8 - i6)) / 2.0,
        "agreeableness": (i7 + (8 - i2)) / 2.0,
        "conscientiousness": (i3 + (8 - i8)) / 2.0,
        "emotional_stability": (i9 + (8 - i4)) / 2.0,
        "openness": (i5 + (8 - i10)) / 2.0,
    }


@dataclass(frozen=True)
class PreferenceRow:
    version: str
    count_a: int
    count_na: int

    @property
    def total(self) -> int:
        return self.count_a + self.count_na

    @property
    def pct_a(self) -> float:
        return 100.0 * self.count_a / self.total if self.total else 0.0

    @property
    def pct_na(self) -> float:
        return 100.0 * self.count_na / self.total if self.total else 0.0


@dataclass(frozen=True)
class PreferenceTable:
    rows: tuple[PreferenceRow, ...]
    totals: PreferenceRow | None


def preference_table(records: Iterable[JudgmentRecord]) -> PreferenceTable:
    """Per-version adapted / non-adapted counts and percentages."""
    counts: dict[str, list[int]] = {}
    for record in records:
        if record.kind != "preference":
            raise DomainError(f"expected preference records, got {record.kind!r}")
        if record.choice not in PREFERENCE_CHOICES:
            raise DomainError(
                f"subject {record.subject_id!r}, stimulus {record.stimulus_id!r}: "
                f"preference must be A or NA, got {record.choice!r}"
            )
        row = counts.setdefault(record.stimulus_id, [0, 0])
        row[0 if record.choice == "A" else 1] += 1
    if not counts:
        return PreferenceTable(rows=(), totals=None)
    rows = tuple(
        PreferenceRow(version, a, na) for version, (a, na) in sorted(counts.items())
    )
    totals = PreferenceRow("total", sum(r.count_a for r in rows), sum(r.count_na for r in rows))
    return PreferenceTable(rows=rows, totals=totals)


def one_sample_ttest(values: Sequence[float], mu: float) -> StatResult:
    """Two-tailed one-sample t test of the mean against ``mu``."""
    n = len(values)
    if n < 2:
        raise StatError(f"need at least 2 values, got {n}")
    for index, value in enumerate(values):
        if not math.isfinite(value):
            raise StatError(f"value {index} is {value!r}, not a finite number")
    if not math.isfinite(mu):
        raise StatError(f"mu is {mu!r}, not a finite number")
    mean = sum(values) / n
    if not math.isfinite(mean):
        raise StatError(f"the mean is {mean!r}: the values overflow a float")
    try:
        ss = sum((v - mean) ** 2 for v in values)
    except OverflowError:  # one squared deviation is beyond the float range
        ss = math.inf
    if not math.isfinite(ss):
        raise StatError("the sum of squared deviations overflows a float")
    variance = ss / (n - 1)
    if variance == 0.0:
        raise StatError("zero sample variance")
    t = (mean - mu) / (math.sqrt(variance) / math.sqrt(n))
    if not math.isfinite(t):
        raise StatError(f"t is {t!r}: the mean is too far from mu for the spread")
    return StatResult(name="one-sample t", value=t, df=(n - 1,), p_value=student_t_two_tailed(t, n - 1))


def anova(
    observations: Sequence[tuple[Mapping[str, str], float]],
    factors: Sequence[str],
    interactions: Sequence[tuple[str, ...]] = (),
) -> list[StatResult]:
    """Between-subjects factorial ANOVA with sequential (Type I) sums of
    squares.  A term's sum of squares is ``|U'y|^2`` and its df the rank of
    ``U``, an orthonormal basis of its treatment-coded columns with the
    intercept and all earlier terms projected out, so on unbalanced data the
    listed order matters.  Levels are compared by their ``str()``.

    Every column is constant within a cell of the factors, so the fit runs
    in the cell-means form: one vector entry per cell, scaled by the square
    root of the cell's count so that a dot product is the inner product over
    observations.  The response enters through its cell means, and the
    within-cell sum of squares joins the residual."""
    if not observations:
        raise StatError("no observations")
    if not factors:
        raise StatError("no factors")
    terms: list[tuple[str, ...]] = [(f,) for f in factors] + [tuple(i) for i in interactions]
    for term, factor in ((t, f) for t in terms for f in t if f not in factors):
        raise StatError(f"term {term} names {factor!r}, which is not a factor")
    rows = [obs for obs, _ in observations]
    cells: defaultdict[tuple[str, ...], list[float]] = defaultdict(list)  # levels, by str() -> responses
    try:
        keys = zip(*[map(str, map(itemgetter(factor), rows)) for factor in factors])
        for key, (_, y) in zip(keys, observations):
            if type(y) is not float or not math.isfinite(y):
                y = _real(y)
                if not math.isfinite(y):
                    _check_inputs(observations, factors)
            cells[key].append(y)
    except KeyError:
        _check_inputs(observations, factors)
        raise
    levels = [sorted({cell[k] for cell in cells}) for k in range(len(factors))]
    if len(set(factors)) < len(factors) or min(map(len, levels)) < 2:
        _check_inputs(observations, factors)
    grid = list(itertools.product(*levels))  # every cell, the first factor's level varying slowest
    if len(cells) < len(grid):
        cell = next(cell for cell in grid if cell not in cells)
        raise EmptyCellError(f"empty cell {dict(zip(factors, cell))}")

    n = len(observations)
    weights, sums, means, within = [], [], [], 0.0
    for cell in grid:
        ys = cells[cell]
        total = sum(ys)
        mean = total / len(ys)
        deviations = [y - mean for y in ys]
        within += _dot(deviations, deviations)
        weights.append(math.sqrt(len(ys)))
        sums.append(total)
        means.append(mean)
    grand = sum(sums) / n
    resid = [w * (mean - grand) for w, mean in zip(weights, means)]
    ss_total = within + _dot(resid, resid)
    if not math.isfinite(ss_total):
        raise StatError("the sum of squared deviations overflows a float")
    tiny = 1e-12 * max(ss_total, 1.0)
    basis = [[w / math.sqrt(n) for w in weights]]
    rank_tol = sys.float_info.epsilon * n * math.sqrt(n)  # design columns have norm <= sqrt(n)
    # each factor's level index in every cell of the grid
    codes = list(zip(*itertools.product(*(range(len(names)) for names in levels))))
    position = {factor: k for k, factor in enumerate(factors)}
    fits: list[tuple[float, int]] = []
    for term in terms:
        at = [position[factor] for factor in term]
        ss_term, df_term = 0.0, 0
        # treatment coding, first level as reference: one column per non-reference level combination
        for combo in itertools.product(*(range(1, len(levels[k])) for k in at)):
            column = weights
            for k, level in zip(at, combo):
                column = [c if code == level else 0.0 for c, code in zip(column, codes[k])]
            for _ in range(2):  # the second pass removes what rounding left of earlier columns
                for q in basis:
                    d = _dot(q, column)
                    column = [c - d * b for c, b in zip(column, q)]
            norm = math.sqrt(_dot(column, column))
            if norm > rank_tol:
                q = [c / norm for c in column]
                basis.append(q)
                coef = _dot(q, resid)
                resid = [r - coef * b for r, b in zip(resid, q)]
                ss_term += coef * coef
                df_term += 1
        fits.append((ss_term, df_term))
    df_resid = n - len(basis)
    if df_resid <= 0:
        raise StatError("no residual degrees of freedom (need replication within cells)")
    ms_resid = (within + _dot(resid, resid)) / df_resid
    results = []
    for term, (ss_term, df_term) in zip(terms, fits):
        if df_term == 0:
            raise StatError(f"term {term} adds no estimable contrasts")
        if ss_term <= tiny:
            f_value, p = 0.0, 1.0
        elif ms_resid <= tiny:
            f_value, p = math.inf, 0.0
        else:
            f_value = (ss_term / df_term) / ms_resid
            p = f_sf(f_value, df_term, df_resid)
        results.append(StatResult(name=":".join(term), value=f_value, df=(df_term, df_resid), p_value=p))
    return results


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(mul, a, b))


def _real(value) -> float:
    """``value`` as a float; nan unless it is a real number in the float
    range.  ``numbers.Real`` takes in ``int`` and ``bool``, and the integer
    and floating scalars of array libraries, which register with it."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    return math.nan


def _check_inputs(observations: Sequence[tuple[Mapping[str, str], float]], factors: Sequence[str]) -> None:
    """Raise the error of ``anova``'s first failing input check, in the
    order they run: every response, then each factor in turn for being listed
    twice, missing from an observation or having fewer than 2 levels."""
    for index, (_, response) in enumerate(observations):
        if not math.isfinite(_real(response)):
            raise StatError(f"observation {index}: response {response!r} is not a finite real number")
    for k, factor in enumerate(factors):
        if factor in factors[:k]:
            raise StatError(f"factor {factor!r} is listed twice")
        for index, (obs, _) in enumerate(observations):
            if factor not in obs:
                raise StatError(f"observation {index} has no factor {factor!r}")
        if len({str(obs[factor]) for obs, _ in observations}) < 2:
            raise StatError(f"factor {factor!r} needs at least 2 levels")


@dataclass(frozen=True)
class WhyRow:
    version: str
    n_subjects: int
    percentages: dict[str, float]  # category -> percent of subjects


@dataclass(frozen=True)
class WhyTable:
    rows: tuple[WhyRow, ...]
    totals: WhyRow | None


def why_category_table(records: Iterable[JudgmentRecord]) -> WhyTable:
    """Percent of subjects per version whose category set contains each
    label.  Rows need not sum to 100: a subject may land in none or in
    several categories.
    """
    by_version: dict[str, list[frozenset[str]]] = {}
    for record in records:
        if record.kind != "why":
            raise DomainError(f"expected why records, got {record.kind!r}")
        labels = record.why
        if labels is None:
            raise DomainError(
                f"subject {record.subject_id!r}, stimulus {record.stimulus_id!r}: why record without labels"
            )
        if not labels <= _WHY_LABELS:
            raise DomainError(f"unknown why categories {sorted(labels - _WHY_LABELS)}")
        by_version.setdefault(record.stimulus_id, []).append(labels)
    if not by_version:
        return WhyTable(rows=(), totals=None)

    def row_for(version: str, sets: list[frozenset[str]]) -> WhyRow:
        n = len(sets)
        return WhyRow(
            version=version,
            n_subjects=n,
            percentages={
                cat: 100.0 * sum(1 for s in sets if cat in s) / n for cat in WHY_CATEGORIES
            },
        )

    rows = tuple(row_for(v, sets) for v, sets in sorted(by_version.items()))
    all_sets = [s for sets in by_version.values() for s in sets]
    return WhyTable(rows=rows, totals=row_for("total", all_sets))


def format_preference_table(table: PreferenceTable) -> str:
    lines = [f"{'version':<18}{'#A':>5}{'#NA':>5}{'%A':>8}{'%NA':>8}"]
    for row in table.rows + ((table.totals,) if table.totals else ()):
        lines.append(
            f"{row.version:<18}{row.count_a:>5}{row.count_na:>5}{row.pct_a:>8.1f}{row.pct_na:>8.1f}"
        )
    return "\n".join(lines)


def format_why_table(table: WhyTable) -> str:
    header = f"{'version':<18}{'n':>4}" + "".join(f"{cat:>26}" for cat in WHY_CATEGORIES)
    lines = [header]
    for row in table.rows + ((table.totals,) if table.totals else ()):
        cells = "".join(f"{row.percentages[cat]:>25.1f}%" for cat in WHY_CATEGORIES)
        lines.append(f"{row.version:<18}{row.n_subjects:>4}" + cells)
    return "\n".join(lines)
