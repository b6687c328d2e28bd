"""Survey scoring and experiment statistics.

Covers the judgment-data pipeline: TIPI personality scoring, per-version
preference counts, the one-sample t test against chance, between-subjects
factorial ANOVA, and the why-category percentages.

Judgment CSV format: ``subject_id,stimulus_id,kind,payload`` where payload
depends on ``kind``:

* ``tipi``: ten pipe-separated item scores, integers 1-7;
* ``preference``: ``A`` (adapted) or ``NA`` (non-adapted);
* ``why``: pipe-separated category labels, possibly empty.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, EmptyCellError, StatError
from .special import f_sf, student_t_two_tailed

TIPI_TRAITS = ("extraversion", "agreeableness", "conscientiousness", "emotional_stability", "openness")

# (direct item, reverse-scored item), 1-based positions in the instrument
_TIPI_KEY = {
    "extraversion": (1, 6),
    "agreeableness": (7, 2),
    "conscientiousness": (3, 8),
    "emotional_stability": (9, 4),
    "openness": (5, 10),
}

WHY_CATEGORIES = (
    "adapted_good_gestures",
    "nonadapted_good_gestures",
    "adapted_animated",
    "nonadapted_realistic",
    "other",
)

PREFERENCE_CHOICES = ("A", "NA")


@dataclass(frozen=True)
class JudgmentRecord:
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


def read_judgments(source: str) -> list[JudgmentRecord]:
    records: list[JudgmentRecord] = []
    reader = csv.reader(io.StringIO(source))
    for row_number, row in enumerate(reader, start=1):
        if not row or row[0].startswith("#"):
            continue
        if row_number == 1 and [c.strip() for c in row[:3]] == ["subject_id", "stimulus_id", "kind"]:
            continue
        if len(row) != 4:
            raise DomainError(f"row {row_number}: expected 4 columns, got {len(row)}")
        subject_id, stimulus_id, kind, payload = (c.strip() for c in row)
        if kind == "tipi":
            try:
                items = tuple(int(p) for p in payload.split("|"))
            except ValueError:
                raise DomainError(f"row {row_number}: bad tipi payload {payload!r}") from None
            records.append(JudgmentRecord(subject_id, stimulus_id, kind, tipi_items=items))
        elif kind == "preference":
            if payload not in PREFERENCE_CHOICES:
                raise DomainError(f"row {row_number}: preference must be A or NA, got {payload!r}")
            records.append(JudgmentRecord(subject_id, stimulus_id, kind, choice=payload))
        elif kind == "why":
            labels = frozenset(p for p in payload.split("|") if p)
            unknown = labels - set(WHY_CATEGORIES)
            if unknown:
                raise DomainError(f"row {row_number}: unknown why categories {sorted(unknown)}")
            records.append(JudgmentRecord(subject_id, stimulus_id, kind, why=labels))
        else:
            raise DomainError(f"row {row_number}: unknown record kind {kind!r}")
    return records


def tipi_score(items: Sequence[int]) -> dict[str, float]:
    """Five trait scores from the ten 7-point items.

    Each trait is the mean of its direct item and its reverse-scored
    partner (reverse: 8 - score).
    """
    if len(items) != 10:
        raise DomainError(f"expected 10 items, got {len(items)}")
    for item in items:
        if not 1 <= item <= 7:
            raise DomainError(f"item scores must be in [1, 7], got {item}")
    return {
        trait: (items[direct - 1] + (8 - items[reverse - 1])) / 2.0
        for trait, (direct, reverse) in _TIPI_KEY.items()
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
    mean = sum(values) / n
    ss = sum((v - mean) ** 2 for v in values)
    if ss == 0.0:
        raise StatError("zero sample variance")
    sd = math.sqrt(ss / (n - 1))
    t = (mean - mu) / (sd / math.sqrt(n))
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
    listed order matters.  Levels are compared by their ``str()``."""
    if not observations:
        raise StatError("no observations")
    if not factors:
        raise StatError("no factors")
    terms: list[tuple[str, ...]] = [(f,) for f in factors] + [tuple(i) for i in interactions]
    for term, factor in ((t, f) for t in terms for f in t if f not in factors):
        raise StatError(f"term {term} names {factor!r}, which is not a factor")
    try:
        y = np.array([response for _, response in observations])
    except ValueError:  # sequences of unequal length among the responses
        y = np.array(None)
    if y.ndim != 1 or y.dtype.kind not in "biuf" or not np.isfinite(y).all():
        for index, (_, r) in enumerate(observations):
            if np.asarray(r, dtype=object).ndim or np.asarray(r).dtype.kind not in "biuf" or not np.isfinite(r):
                raise StatError(f"observation {index}: response {r!r} is not a finite real number")
    n = len(y)
    coded: dict[str, tuple[list[str], np.ndarray]] = {}  # factor -> (levels, level index per observation)
    for factor in factors:
        if factor in coded:
            raise StatError(f"factor {factor!r} is listed twice")
        try:
            labels = [str(obs[factor]) for obs, _ in observations]
        except KeyError:
            index = next(k for k, (obs, _) in enumerate(observations) if factor not in obs)
            raise StatError(f"observation {index} has no factor {factor!r}") from None
        names, code = np.unique(labels, return_inverse=True)
        if len(names) < 2:
            raise StatError(f"factor {factor!r} needs at least 2 levels")
        coded[factor] = (names.tolist(), code)
    shape = tuple(len(names) for names, _ in coded.values())
    cells = np.ravel_multi_index([code for _, code in coded.values()], shape)
    counts = np.bincount(cells, minlength=math.prod(shape))
    if counts.min() == 0:
        cell = np.unravel_index(int(np.argmin(counts)), shape)
        raise EmptyCellError(f"empty cell { {f: coded[f][0][c] for f, c in zip(factors, cell)} }")

    resid = y.astype(float) - y.mean()
    tiny = 1e-12 * max(float(resid @ resid), 1.0)
    basis = np.full((n, 1), 1.0 / math.sqrt(n))
    rank_tol = np.finfo(float).eps * n * math.sqrt(n)  # design columns have norm <= sqrt(n)
    fits: list[tuple[float, int]] = []
    for term in terms:
        block = np.ones((n, 1))
        for factor in term:
            names, code = coded[factor]
            dummy = code[:, None] == np.arange(1, len(names))  # treatment coding, first level as reference
            block = (block[:, :, None] * dummy[:, None, :]).reshape(n, -1)
        for _ in range(2):  # the second pass removes what rounding left of earlier terms
            block = block - basis @ (basis.T @ block)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        u = u[:, s > rank_tol]
        coef = u.T @ resid
        resid = resid - u @ coef
        fits.append((float(coef @ coef), u.shape[1]))
        basis = np.hstack([basis, u])
    df_resid = n - basis.shape[1]
    if df_resid <= 0:
        raise StatError("no residual degrees of freedom (need replication within cells)")
    ms_resid = float(resid @ resid) / df_resid
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
        unknown = (record.why or frozenset()) - set(WHY_CATEGORIES)
        if unknown:
            raise DomainError(f"unknown why categories {sorted(unknown)}")
        by_version.setdefault(record.stimulus_id, []).append(record.why or frozenset())
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
