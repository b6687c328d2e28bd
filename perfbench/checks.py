"""Output checks run after every op, outside its timed interval.

Each check raises :class:`CheckFailed` naming the first problem found.
The compile checks are written here from the dialog format's rules and do
not call the program's own ``validate_timeline``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

LEAD_MS = 200
# t and F agree with the oracles to 1e-9, relative for values above 1 and
# absolute below: an F near zero from a null term carries the rounding
# error of the much larger sums of squares it is the difference of.
STAT_TOL = 1e-9

# Phases that may follow each phase on one arm.
_NEXT = {
    "prep": ("stroke",),
    "stroke": ("hold", "prep", "retract"),
    "hold": ("prep",),
    "retract": ("prep",),
}


class CheckFailed(Exception):
    pass


def _fail(message: str) -> None:
    raise CheckFailed(message)


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file below ``root``, keyed by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def check_round_trip(data: bytes, fmt: str, emitter) -> None:
    """The reader accepts the script and re-emitting it gives the same bytes."""
    try:
        document = emitter.read_script(data)
    except Exception as exc:  # any rejection by the reader is a failed op
        _fail(f"reader rejects {fmt} script: {exc}")
    if emitter.emit_document(document, fmt) != data:
        _fail(f"re-emitting the {fmt} script changes its bytes")


def check_build(out_dir: Path, expected: dict[str, str], emitter, written_before: int) -> int:
    """Every file was rewritten after ``written_before`` (an mtime in ns) and
    has its recorded digest; every script round-trips.  Returns the newest
    mtime, for the next op's check."""
    files = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    if files.keys() != expected.keys():
        missing = sorted(expected.keys() - files.keys())[:3]
        extra = sorted(files.keys() - expected.keys())[:3]
        _fail(f"written files differ: missing {missing}, unexpected {extra}")
    newest = 0
    for name, path in sorted(files.items()):
        mtime = path.stat().st_mtime_ns
        if mtime <= written_before:
            _fail(f"{name}: not rewritten by this op")
        newest = max(newest, mtime)
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != expected[name]:
            _fail(f"{name}: bytes differ from the recorded digest")
        if ".script." in name:
            check_round_trip(data, "json" if name.endswith(".json") else "text", emitter)
    return newest


def check_phase_order(events: list[dict], audio: float, where: str) -> None:
    """Per arm: positive-length phases, contiguous except after a retract,
    in the order prep, stroke, then hold+prep, prep or retract(+prep)."""
    by_arm: dict[str, list[dict]] = {}
    for event in events:
        by_arm.setdefault(event["arm"], []).append(event)
    for arm, phases in by_arm.items():
        for i, p in enumerate(phases):
            if not p["start"] < p["end"]:
                _fail(f"{where} {arm}[{i}]: {p['kind']} has no positive length")
            if p["kind"] not in _NEXT:
                _fail(f"{where} {arm}[{i}]: unknown phase {p['kind']!r}")
        for i in range(len(phases) - 1):
            p, q = phases[i], phases[i + 1]
            if q["kind"] not in _NEXT[p["kind"]]:
                _fail(f"{where} {arm}[{i}]: {p['kind']} followed by {q['kind']}")
            if q["start"] < p["end"] or (p["kind"] != "retract" and q["start"] != p["end"]):
                _fail(f"{where} {arm}[{i}]: {p['kind']} ends {p['end']}, {q['kind']} starts {q['start']}")
        head, tail = phases[0], phases[-1]
        if head["kind"] != "prep" and not (head["kind"] == "stroke" and head["start"] == 0):
            _fail(f"{where} {arm}: first phase is {head['kind']}")
        if tail["kind"] != "retract" and tail["end"] < audio:
            _fail(f"{where} {arm}: last phase is {tail['kind']} before the audio ends")


def check_stroke_leads(events: list[dict], onsets_ms: frozenset[int], where: str) -> int:
    """Every stroke starts exactly the lead before some word onset of the
    track; returns the number of strokes."""
    strokes = 0
    for event in events:
        if event["kind"] == "stroke":
            strokes += 1
            if round(event["start"] * 1000) + LEAD_MS not in onsets_ms:
                _fail(f"{where}: stroke at {event['start']:.3f}s is not {LEAD_MS} ms before a word onset")
    return strokes


def check_compile(scripts: dict[tuple[str, str], bytes], onsets_ms: frozenset[int], emitter) -> int:
    """Checks on one compiled dialog's scripts; returns the stroke count."""
    strokes = 0
    for (speaker, fmt), data in scripts.items():
        check_round_trip(data, fmt, emitter)
        if fmt != "json":
            continue
        doc = json.loads(data)
        if doc["header"]["speaker"] != speaker:
            _fail(f"{speaker}: script names speaker {doc['header']['speaker']!r}")
        strokes += check_stroke_leads(doc["events"], onsets_ms, speaker)
        check_phase_order(doc["events"], doc["header"]["audio"], speaker)
    if strokes == 0:
        _fail("no strokes in the compiled dialog")
    return strokes


# --- analysis ---------------------------------------------------------------


def balanced_anova_oracle(
    observations: list[tuple[dict[str, str], float]], factors: tuple[str, str, str]
) -> dict[str, float]:
    """F values of the full three-way model on balanced data, from cell and
    marginal means (the textbook decomposition, no least squares)."""
    f1, f2, f3 = factors
    ys = [y for _, y in observations]
    n_total = len(ys)
    grand = sum(ys) / n_total

    def means(keys: tuple[str, ...]) -> dict[tuple[str, ...], float]:
        sums: dict[tuple[str, ...], list[float]] = {}
        for obs, y in observations:
            acc = sums.setdefault(tuple(obs[k] for k in keys), [0.0, 0])
            acc[0] += y
            acc[1] += 1
        return {key: s / n for key, (s, n) in sums.items()}

    m1, m2, m3 = means((f1,)), means((f2,)), means((f3,))
    m12, m13, m23 = means((f1, f2)), means((f1, f3)), means((f2, f3))
    m123 = means(factors)
    levels = [sorted({obs[f] for obs, _ in observations}) for f in factors]
    a, b, c = (len(lv) for lv in levels)
    per_cell = n_total // (a * b * c)

    ss = {name: 0.0 for name in ("1", "2", "3", "12", "13", "23", "123")}
    for i in levels[0]:
        for j in levels[1]:
            for k in levels[2]:
                e1 = m1[(i,)] - grand
                e2 = m2[(j,)] - grand
                e3 = m3[(k,)] - grand
                e12 = m12[(i, j)] - m1[(i,)] - m2[(j,)] + grand
                e13 = m13[(i, k)] - m1[(i,)] - m3[(k,)] + grand
                e23 = m23[(j, k)] - m2[(j,)] - m3[(k,)] + grand
                e123 = (
                    m123[(i, j, k)] - m12[(i, j)] - m13[(i, k)] - m23[(j, k)]
                    + m1[(i,)] + m2[(j,)] + m3[(k,)] - grand
                )
                for name, e in (("1", e1), ("2", e2), ("3", e3), ("12", e12),
                                ("13", e13), ("23", e23), ("123", e123)):
                    ss[name] += per_cell * e * e
    ss_error = sum((y - m123[tuple(obs[f] for f in factors)]) ** 2 for obs, y in observations)
    df = {"1": a - 1, "2": b - 1, "3": c - 1, "12": (a - 1) * (b - 1), "13": (a - 1) * (c - 1),
          "23": (b - 1) * (c - 1), "123": (a - 1) * (b - 1) * (c - 1)}
    df_error = n_total - a * b * c
    ms_error = ss_error / df_error
    names = {"1": f1, "2": f2, "3": f3, "12": f"{f1}:{f2}", "13": f"{f1}:{f3}",
             "23": f"{f2}:{f3}", "123": f"{f1}:{f2}:{f3}"}
    return {names[key]: (ss[key] / df[key]) / ms_error for key in ss}


def one_sample_t(values: list[float], mu: float) -> float:
    n = len(values)
    mean = math.fsum(values) / n
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return (mean - mu) / (sd / math.sqrt(n))


def check_analysis(result: dict, study, anova_expected: dict[str, float]) -> None:
    """Tables equal the generator's tallies; t and F match the oracles."""
    table = result["preference"]
    got = {row.version: (row.count_a, row.count_na) for row in table.rows}
    want = {k: tuple(v) for k, v in study.preference.items()}
    if got != want:
        _fail("preference counts differ from the generator's tallies")
    for row in table.rows:
        if row.pct_a != 100.0 * row.count_a / row.total or row.pct_na != 100.0 * row.count_na / row.total:
            _fail(f"{row.version}: preference percentages disagree with the counts")
    total_a = sum(a for a, _ in want.values())
    total_na = sum(na for _, na in want.values())
    if (table.totals.count_a, table.totals.count_na) != (total_a, total_na):
        _fail("preference totals differ from the generator's tallies")

    t_expected = one_sample_t([100.0 * a / (a + na) for _, (a, na) in sorted(want.items())], 50.0)
    if not math.isclose(result["ttest"].value, t_expected, rel_tol=STAT_TOL, abs_tol=STAT_TOL):
        _fail(f"t = {result['ttest'].value!r}, oracle {t_expected!r}")

    why_rows = {row.version: row for row in result["why"].rows}
    if why_rows.keys() != study.why.keys():
        _fail("why-category table has other stimuli than the study")
    for stimulus, (n, per_cat) in study.why.items():
        row = why_rows[stimulus]
        if row.n_subjects != n:
            _fail(f"{stimulus}: why table counts {row.n_subjects} subjects, generator {n}")
        for cat, count in per_cat.items():
            if row.percentages[cat] != 100.0 * count / n:
                _fail(f"{stimulus}/{cat}: why percentage differs from the generator's tally")

    scores = [s["extraversion"] for s in result["tipi"]]
    if scores != [y for _, y in study.observations]:
        _fail("TIPI extraversion scores differ from the generator's items")
    got_f = {r.name: r.value for r in result["anova"]}
    if got_f.keys() != anova_expected.keys():
        _fail(f"ANOVA terms {sorted(got_f)} differ from the oracle's")
    for name, expected in anova_expected.items():
        if not math.isclose(got_f[name], expected, rel_tol=STAT_TOL, abs_tol=STAT_TOL):
            _fail(f"ANOVA {name}: F = {got_f[name]!r}, oracle {expected!r}")
