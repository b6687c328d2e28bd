from __future__ import annotations

import ast
import csv
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gesturec
from conftest import DATA_DIR
from gesturec.analysis import (
    PREFERENCE_CHOICES,
    WHY_CATEGORIES,
    JudgmentRecord,
    WhyTable,
    anova,
    one_sample_ttest,
    preference_table,
    read_judgments,
    tipi_score,
    why_category_table,
)
from gesturec.errors import DomainError, EmptyCellError, GesturecError, StatError
from gesturec.special import f_sf


@pytest.fixture(scope="module")
def judgment_records():
    return read_judgments((DATA_DIR / "adaptation_judgments.csv").read_text(encoding="utf-8"))


# --- TIPI ---------------------------------------------------------------


def test_tipi_all_fours_is_flat():
    scores = tipi_score([4] * 10)
    assert all(v == 4.0 for v in scores.values())


def test_tipi_maximal_extraversion():
    items = [4] * 10
    items[0] = 7  # extraverted, enthusiastic
    items[5] = 1  # reserved, quiet (reverse scored)
    assert tipi_score(items)["extraversion"] == 7.0


def test_tipi_matches_independent_key():
    # independent scoring oracle, written out trait by trait
    def oracle(items):
        r = lambda i: 8 - items[i - 1]
        d = lambda i: items[i - 1]
        return {
            "extraversion": (d(1) + r(6)) / 2,
            "agreeableness": (r(2) + d(7)) / 2,
            "conscientiousness": (d(3) + r(8)) / 2,
            "emotional_stability": (r(4) + d(9)) / 2,
            "openness": (d(5) + r(10)) / 2,
        }

    rng = random.Random(42)
    for _ in range(300):
        items = [rng.randint(1, 7) for _ in range(10)]
        assert tipi_score(items) == oracle(items)


def test_tipi_reverse_complement_mirrors_extraversion():
    rng = random.Random(11)
    for _ in range(100):
        items = [rng.randint(1, 7) for _ in range(10)]
        flipped = [8 - v for v in items]
        assert tipi_score(flipped)["extraversion"] == pytest.approx(
            8 - tipi_score(items)["extraversion"]
        )


def test_tipi_rejects_out_of_range():
    with pytest.raises(DomainError):
        tipi_score([0] + [4] * 9)
    with pytest.raises(DomainError):
        tipi_score([4] * 9)


def test_tipi_names_the_first_item_out_of_range():
    with pytest.raises(DomainError, match=r"got 9$"):
        tipi_score([4, 4, 9, 4, 4, 4, 4, 0, 4, 4])
    with pytest.raises(DomainError, match=r"got nan$"):
        tipi_score([4] * 9 + [math.nan])


# --- preference table ----------------------------------------------------


def test_preference_garden_abab(judgment_records):
    table = preference_table([r for r in judgment_records if r.kind == "preference"])
    row = next(r for r in table.rows if r.version == "garden_ABAB")
    assert (row.count_a, row.count_na) == (20, 2)
    assert round(row.pct_a, 1) == 90.9
    assert round(row.pct_na, 1) == 9.1


def test_preference_totals(judgment_records):
    table = preference_table([r for r in judgment_records if r.kind == "preference"])
    assert (table.totals.count_a, table.totals.count_na) == (109, 60)
    assert round(table.totals.pct_a, 1) == 64.5
    assert round(table.totals.pct_a) == 64
    assert round(table.totals.pct_na) == 36


def test_preference_empty():
    table = preference_table([])
    assert table.rows == () and table.totals is None


def test_preference_rejects_other_kinds():
    with pytest.raises(DomainError):
        preference_table([JudgmentRecord("s1", "x", "why", why=frozenset())])


@pytest.mark.parametrize("choice", ["maybe", None, "a"])
def test_preference_rejects_a_choice_other_than_a_or_na(choice):
    records = [JudgmentRecord("s1", "v", "preference", choice="A"),
               JudgmentRecord("s2", "v", "preference", choice=choice)]
    with pytest.raises(DomainError, match="subject 's2', stimulus 'v': preference must be A or NA"):
        preference_table(records)


# --- one-sample t test ----------------------------------------------------


def test_ttest_on_preference_percentages(judgment_records):
    table = preference_table([r for r in judgment_records if r.kind == "preference"])
    result = one_sample_ttest([row.pct_a for row in table.rows], 50.0)
    assert result.df == (7,)
    assert 2.13 <= result.value <= 2.17
    assert 0.06 <= result.p_value <= 0.08


def test_ttest_independently_recomputed():
    values = [55.0, 90.0, 43.0, 79.0]
    n = len(values)
    mean = sum(values) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    expected_t = (mean - 50.0) / (sd / math.sqrt(n))
    result = one_sample_ttest(values, 50.0)
    assert result.value == pytest.approx(expected_t)


def test_ttest_zero_variance():
    with pytest.raises(StatError):
        one_sample_ttest([50.0, 50.0, 50.0], 50.0)


def test_ttest_needs_two_values():
    with pytest.raises(StatError):
        one_sample_ttest([50.0], 50.0)


@pytest.mark.parametrize(
    "values, mu, named",
    [
        ([math.nan, 1.0, 2.0], 50.0, "value 0 is nan"),
        ([1.0, 2.0, math.inf], 50.0, "value 2 is inf"),
        ([1.0, -math.inf, 2.0], 50.0, "value 1 is -inf"),
        ([1.0, 2.0, 3.0], math.nan, "mu is nan"),
        ([1.0, 2.0, 3.0], math.inf, "mu is inf"),
    ],
    ids=["nan", "inf", "-inf", "mu-nan", "mu-inf"],
)
def test_ttest_rejects_non_finite_input(values, mu, named):
    with pytest.raises(StatError) as err:
        one_sample_ttest(values, mu)
    assert named in str(err.value)


@pytest.mark.parametrize(
    "values, mu, named",
    [
        ([1e200, -1e200, 3.0], 0.0, "sum of squared deviations overflows"),
        ([1e308, 1e308, 1.0], 0.0, "the mean is inf"),
        ([1.0, 2.0, 3.0], -1.7e308, "t is inf"),
    ],
    ids=["squares", "mean", "t"],
)
def test_ttest_rejects_finite_input_that_overflows(values, mu, named):
    with pytest.raises(StatError) as err:
        one_sample_ttest(values, mu)
    assert named in str(err.value)


def test_ttest_symmetric_sample():
    result = one_sample_ttest([49.0, 51.0], 50.0)
    assert result.value == 0.0
    assert result.p_value == 1.0


def test_ttest_sign_symmetry():
    values = [52.0, 61.0, 47.0, 55.0]
    plus = one_sample_ttest(values, 50.0)
    minus = one_sample_ttest([100.0 - v for v in values], 50.0)
    assert minus.value == pytest.approx(-plus.value)
    assert minus.p_value == pytest.approx(plus.p_value)


def test_ttest_scale_invariance():
    values = [52.0, 61.0, 47.0, 55.0]
    base = one_sample_ttest(values, 50.0)
    scaled = one_sample_ttest([3.5 * v for v in values], 3.5 * 50.0)
    assert scaled.value == pytest.approx(base.value)
    assert scaled.p_value == pytest.approx(base.p_value)


# --- ANOVA ----------------------------------------------------------------


def _balanced_dataset(rng, shape=(2, 2, 4), per_cell=5, effects=None, noise=1.0):
    factors = ["personality", "gender", "story"]
    levels = {
        "personality": [f"p{i}" for i in range(shape[0])],
        "gender": [f"g{i}" for i in range(shape[1])],
        "story": [f"s{i}" for i in range(shape[2])],
    }
    observations = []
    for cell in itertools.product(*(levels[f] for f in factors)):
        for _ in range(per_cell):
            response = rng.gauss(0.0, noise) if noise else 0.0
            if effects:
                response += effects(dict(zip(factors, cell)))
            observations.append((dict(zip(factors, cell)), response))
    return observations, factors, levels


def balanced_three_way_oracle(observations, factors):
    """Brute-force sums of squares by mean decomposition (balanced data)."""
    responses = [y for _, y in observations]
    n = len(responses)
    grand = sum(responses) / n

    def mean_where(condition):
        ys = [y for obs, y in observations if condition(obs)]
        return sum(ys) / len(ys)

    levels = {f: sorted({obs[f] for obs, _ in observations}) for f in factors}
    m1 = {
        f: {a: mean_where(lambda o, f=f, a=a: o[f] == a) for a in levels[f]} for f in factors
    }
    m2 = {}
    for f, g in itertools.combinations(factors, 2):
        m2[(f, g)] = {
            (a, b): mean_where(lambda o, f=f, g=g, a=a, b=b: o[f] == a and o[g] == b)
            for a in levels[f]
            for b in levels[g]
        }
    m3 = {
        cell: mean_where(lambda o, cell=cell: all(o[f] == v for f, v in zip(factors, cell)))
        for cell in itertools.product(*(levels[f] for f in factors))
    }

    counts = {f: n // len(levels[f]) for f in factors}
    ss = {}
    for f in factors:
        ss[(f,)] = counts[f] * sum((m1[f][a] - grand) ** 2 for a in levels[f])
    for f, g in itertools.combinations(factors, 2):
        n_cell = n // (len(levels[f]) * len(levels[g]))
        ss[(f, g)] = n_cell * sum(
            (m2[(f, g)][(a, b)] - m1[f][a] - m1[g][b] + grand) ** 2
            for a in levels[f]
            for b in levels[g]
        )
    f1, f2, f3 = factors
    n_cell = n // len(m3)
    ss[(f1, f2, f3)] = n_cell * sum(
        (
            m3[(a, b, c)]
            - m2[(f1, f2)][(a, b)] - m2[(f1, f3)][(a, c)] - m2[(f2, f3)][(b, c)]
            + m1[f1][a] + m1[f2][b] + m1[f3][c]
            - grand
        ) ** 2
        for a in levels[f1]
        for b in levels[f2]
        for c in levels[f3]
    )
    ss_resid = sum(
        (y - m3[tuple(obs[f] for f in factors)]) ** 2 for obs, y in observations
    )
    df = {}
    for f in factors:
        df[(f,)] = len(levels[f]) - 1
    for f, g in itertools.combinations(factors, 2):
        df[(f, g)] = (len(levels[f]) - 1) * (len(levels[g]) - 1)
    df[(f1, f2, f3)] = math.prod(len(levels[f]) - 1 for f in factors)
    df_resid = n - len(m3)
    ms_resid = ss_resid / df_resid
    return {term: (ss[term] / df[term]) / ms_resid for term in ss}


FULL_MODEL = (
    ("personality", "gender"),
    ("personality", "story"),
    ("gender", "story"),
    ("personality", "gender", "story"),
)


def test_anova_matches_mean_decomposition_oracle():
    rng = random.Random(2024)
    for _ in range(25):
        observations, factors, _ = _balanced_dataset(rng)
        results = {tuple(r.name.split(":")): r for r in anova(observations, factors, FULL_MODEL)}
        oracle = balanced_three_way_oracle(observations, factors)
        for term, expected in oracle.items():
            got = results[term].value
            assert got == pytest.approx(expected, rel=1e-9), term


def test_anova_null_effects_are_zero():
    rng = random.Random(5)
    observations, factors, _ = _balanced_dataset(
        rng, shape=(2, 2, 2), per_cell=4, noise=0.0,
        effects=lambda obs: 3.0 if obs["personality"] == "p1" else 0.0,
    )
    results = {r.name: r for r in anova(observations, factors, (("personality", "gender"),))}
    assert results["personality"].value == math.inf  # pure effect, zero noise
    assert results["gender"].value == 0.0
    assert results["personality:gender"].value == 0.0


def test_anova_constant_response():
    rng = random.Random(6)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=3, noise=0.0)
    for result in anova(observations, factors):
        assert result.value == 0.0
        assert result.p_value == 1.0


def test_anova_label_permutation_invariance():
    rng = random.Random(7)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 4), per_cell=4)
    base = {r.name: r.value for r in anova(observations, factors, FULL_MODEL)}
    swapped = [
        ({**obs, "gender": {"g0": "g1", "g1": "g0"}[obs["gender"]]}, y)
        for obs, y in observations
    ]
    permuted = {r.name: r.value for r in anova(swapped, factors, FULL_MODEL)}
    assert permuted["gender"] == pytest.approx(base["gender"], rel=1e-9)


def test_anova_empty_cell():
    rng = random.Random(8)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=2)
    without_cell = [
        (obs, y) for obs, y in observations
        if not (obs["personality"] == "p0" and obs["gender"] == "g0" and obs["story"] == "s0")
    ]
    with pytest.raises(EmptyCellError):
        anova(without_cell, factors)


def test_anova_needs_observations():
    with pytest.raises(StatError) as err:
        anova([], ["f"])
    assert str(err.value) == "no observations"


def test_anova_needs_two_levels():
    observations = [({"f": "only", "g": f"g{i % 2}"}, float(i)) for i in range(8)]
    with pytest.raises(StatError):
        anova(observations, ["f", "g"])


def test_anova_needs_replication():
    rng = random.Random(9)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=1)
    with pytest.raises(StatError):
        anova(observations, factors, FULL_MODEL)


def test_anova_p_values_in_range():
    rng = random.Random(10)
    observations, factors, _ = _balanced_dataset(rng)
    for result in anova(observations, factors, FULL_MODEL):
        assert 0.0 <= result.p_value <= 1.0


def nested_lstsq_anova(observations, factors, interactions=()):
    """Reference Type I ANOVA: the residual-sum reductions of nested
    least-squares fits, with the design built one observation at a time.
    Returns ``{name: (F, p, df)}``."""
    terms = [(f,) for f in factors] + [tuple(i) for i in interactions]
    levels = {f: sorted({str(obs[f]) for obs, _ in observations}) for f in factors}

    def columns(term, obs):
        cols = [1.0]
        for factor in term:
            dummies = [1.0 if str(obs[factor]) == level else 0.0 for level in levels[factor][1:]]
            cols = [c * d for c in cols for d in dummies]
        return cols

    y = np.array([response for _, response in observations], dtype=float)
    blocks = [np.ones((len(y), 1))] + [
        np.array([columns(term, obs) for obs, _ in observations]) for term in terms
    ]
    rss, ranks = [], []
    for k in range(1, len(blocks) + 1):
        design = np.hstack(blocks[:k])
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        rss.append(float(np.sum((y - design @ coef) ** 2)))
        ranks.append(int(rank))
    df_resid = len(y) - ranks[-1]
    ms_resid = rss[-1] / df_resid
    out = {}
    for i, term in enumerate(terms):
        df_term = ranks[i + 1] - ranks[i]
        f_value = ((rss[i] - rss[i + 1]) / df_term) / ms_resid
        out[":".join(term)] = (f_value, f_sf(f_value, df_term, df_resid), (df_term, df_resid))
    return out


def _unbalanced_dataset(rng, shape=(2, 2, 3)):
    """2 to 6 observations in each cell of a personality x gender x story
    design with ``shape`` levels; level ``i`` shifts the mean by ``i`` times
    0.8, 0.5 and 0.3."""
    observations = []
    levels = [[f"{prefix}{i}" for i in range(count)] for prefix, count in zip("pgs", shape)]
    for p, g, s in itertools.product(*levels):
        for _ in range(rng.randint(2, 6)):
            shift = int(p[1:]) * 0.8 + int(g[1:]) * 0.5 + int(s[1:]) * 0.3
            observations.append(({"personality": p, "gender": g, "story": s}, shift + rng.gauss(0.0, 1.0)))
    return observations


@pytest.mark.parametrize("seed", range(5))
def test_anova_matches_nested_lstsq_reference_on_unbalanced_data(seed):
    for shape in ((2, 2, 3), (2, 2, 4), (3, 2, 4)):
        observations = _unbalanced_dataset(random.Random(seed), shape)
        by_order = {}
        for order in (("personality", "gender", "story"), ("story", "gender", "personality")):
            interactions = tuple(itertools.combinations(order, 2)) + (order,)
            expected = nested_lstsq_anova(observations, order, interactions)
            results = anova(observations, order, interactions)
            assert [r.name for r in results] == list(expected)
            for r in results:
                f_value, p, df = expected[r.name]
                assert r.df == df, (shape, r.name)
                assert r.value == pytest.approx(f_value, rel=1e-9, abs=1e-9), (shape, r.name)
                assert r.p_value == pytest.approx(p, rel=1e-9, abs=1e-9), (shape, r.name)
            by_order[order] = {r.name: r.value for r in results}
        first, second = by_order.values()
        # unbalanced: a main effect's sum of squares depends on what precedes it
        assert first["personality"] != pytest.approx(second["personality"], rel=1e-6), shape
        assert first["story"] != pytest.approx(second["story"], rel=1e-6), shape


def test_anova_runs_where_numpy_cannot_be_imported():
    """``anova`` needs only the standard library: in a process where every
    ``import numpy`` fails it gives the results of this process."""
    observations = _unbalanced_dataset(random.Random(17), (3, 2, 4))
    factors = ["personality", "gender", "story"]
    interactions = [["personality", "gender"], ["personality", "story"], ["gender", "story"], factors]
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None  # makes every import of numpy raise ImportError\n"
        "from gesturec.analysis import anova\n"
        "observations, factors, interactions = json.load(sys.stdin)\n"
        "results = anova(observations, factors, [tuple(term) for term in interactions])\n"
        "print(json.dumps([[r.name, r.value, list(r.df), r.p_value] for r in results]))\n"
    )
    src = str(Path(gesturec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps([observations, factors, interactions]),
        env=env, capture_output=True, text=True, check=True,
    )
    expected = anova(observations, factors, [tuple(term) for term in interactions])
    assert json.loads(result.stdout) == [[r.name, r.value, list(r.df), r.p_value] for r in expected]


def test_anova_compares_levels_by_their_string():
    rng = random.Random(12)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 3), per_cell=3)
    as_strings = [({f: level[1:] for f, level in obs.items()}, y) for obs, y in observations]
    as_ints = [({f: int(level) for f, level in obs.items()}, y) for obs, y in as_strings]
    mixed = [pair[i % 2] for i, pair in enumerate(zip(as_ints, as_strings))]
    expected = [(r.name, r.value, r.df) for r in anova(as_strings, factors, FULL_MODEL)]
    for data in (as_ints, mixed):
        got = [(r.name, r.value, r.df) for r in anova(data, factors, FULL_MODEL)]
        assert [g[0] for g in got] == [e[0] for e in expected]
        for (_, value, df), (_, want, want_df) in zip(got, expected):
            assert df == want_df
            assert value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "interactions, offender",
    [
        ((("gender", "gender"),), "('gender', 'gender')"),
        ((("personality", "gender"), ("personality", "gender")), "('personality', 'gender')"),
        ((("personality", "gender"), ("gender", "personality")), "('gender', 'personality')"),
        (((),), "()"),
    ],
)
def test_anova_term_without_new_contrasts(interactions, offender):
    rng = random.Random(13)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=3)
    with pytest.raises(StatError, match=re.escape(f"term {offender} adds no estimable contrasts")):
        anova(observations, factors, interactions)


def test_anova_names_bad_factors():
    rng = random.Random(14)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=3)
    with pytest.raises(StatError, match="names 'age', which is not a factor"):
        anova(observations, factors, (("personality", "age"),))
    with pytest.raises(StatError, match="factor 'personality' is listed twice"):
        anova(observations, ("personality", "personality", "gender"))
    missing = list(observations)
    missing[4] = ({"personality": "p0", "gender": "g0"}, 1.0)
    with pytest.raises(StatError, match="observation 4 has no factor 'story'"):
        anova(missing, factors)
    with pytest.raises(StatError, match="no factors"):
        anova(observations, ())


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, "3", None, [1.0], [[1.0], [1.0, 2.0]], 10**400],
    ids=["nan", "inf", "-inf", "str", "None", "list", "ragged", "huge-int"],
)
def test_anova_rejects_responses_that_are_not_finite_numbers(bad):
    rng = random.Random(15)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=3)
    observations[5] = (observations[5][0], bad)
    with pytest.raises(StatError, match="observation 5: response .* is not a finite real number"):
        anova(observations, factors)


def test_anova_runs_its_input_checks_in_order():
    """Whatever the order of the observations, every response is checked
    first, then each factor in turn for being listed twice, missing from an
    observation or having fewer than 2 levels."""
    rng = random.Random(18)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=3)
    data = list(observations)
    data[2] = ({"personality": "p0", "gender": "g0"}, data[2][1])
    data[7] = (data[7][0], math.nan)
    with pytest.raises(StatError, match="observation 7: response nan is not a finite real number"):
        anova(data, factors)
    data[7] = observations[7]
    data[9] = ({"gender": "g0", "story": "s0"}, 1.0)
    with pytest.raises(StatError, match="observation 9 has no factor 'personality'"):
        anova(data, factors)
    one_level = [({**obs, "personality": "p0"}, y) for obs, y in observations]
    with pytest.raises(StatError, match="factor 'personality' needs at least 2 levels"):
        anova(one_level, ("personality", "gender", "gender"))


def test_anova_refuses_sums_of_squares_beyond_the_float_range():
    observations, factors, _ = _balanced_dataset(random.Random(19), shape=(2, 2, 2), per_cell=3)
    huge = [(obs, y * 1e200) for obs, y in observations]
    with pytest.raises(StatError, match="the sum of squared deviations overflows a float"):
        anova(huge, factors)


def test_anova_accepts_integer_and_numpy_responses():
    rng = random.Random(16)
    observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 2), per_cell=3)
    rounded = [(obs, round(y * 10)) for obs, y in observations]
    expected = [r.value for r in anova([(obs, float(y)) for obs, y in rounded], factors)]
    for data in (rounded, [(obs, np.int64(y)) for obs, y in rounded], [(obs, np.float32(y)) for obs, y in rounded]):
        assert [r.value for r in anova(data, factors)] == pytest.approx(expected, rel=1e-12)


# --- why categories --------------------------------------------------------


def test_why_garden_abab_row(judgment_records):
    table = why_category_table([r for r in judgment_records if r.kind == "why"])
    row = next(r for r in table.rows if r.version == "garden_ABAB")
    assert row.percentages["adapted_good_gestures"] == pytest.approx(41, abs=1.0)
    assert row.percentages["nonadapted_good_gestures"] == pytest.approx(9, abs=1.0)
    assert row.percentages["adapted_animated"] == pytest.approx(59, abs=1.0)
    assert row.percentages["nonadapted_realistic"] == pytest.approx(0, abs=1.0)


def test_why_table_of_no_records_has_no_rows_and_no_totals():
    assert why_category_table([]) == WhyTable(rows=(), totals=None)


def test_why_empty_set_counts_in_denominator():
    records = [
        JudgmentRecord("s1", "v", "why", why=frozenset({"adapted_animated"})),
        JudgmentRecord("s2", "v", "why", why=frozenset()),
    ]
    table = why_category_table(records)
    assert table.rows[0].percentages["adapted_animated"] == 50.0


def test_why_multi_category_counts_once_each():
    records = [
        JudgmentRecord("s1", "v", "why",
                       why=frozenset({"adapted_animated", "adapted_good_gestures"})),
    ]
    row = why_category_table(records).rows[0]
    assert row.percentages["adapted_animated"] == 100.0
    assert row.percentages["adapted_good_gestures"] == 100.0


def test_why_unknown_label():
    with pytest.raises(DomainError):
        why_category_table([JudgmentRecord("s1", "v", "why", why=frozenset({"weird"}))])


def test_why_table_refuses_records_of_another_kind():
    with pytest.raises(DomainError) as err:
        why_category_table([JudgmentRecord("s1", "v", "preference", choice="A")])
    assert str(err.value) == "expected why records, got 'preference'"


def test_why_record_without_labels_is_rejected():
    records = [JudgmentRecord("s1", "v", "why", why=frozenset()), JudgmentRecord("s2", "w", "why")]
    with pytest.raises(DomainError, match="subject 's2', stimulus 'w': why record without labels"):
        why_category_table(records)


def test_read_judgments_rejects_bad_rows():
    with pytest.raises(DomainError):
        read_judgments("s1,v,preference,MAYBE\n")
    with pytest.raises(DomainError):
        read_judgments("s1,v,why,odd_label\n")
    with pytest.raises(DomainError):
        read_judgments("s1,v,tipi,1|2\n" .replace("1|2", "1|x"))


@pytest.mark.parametrize(
    "payload",
    ["1|2", "4|4|4|4|4|4|4|4|4|9", "2_0|1|1|1|1|1|1|1|1|1", "\u0663|1|1|1|1|1|1|1|1|1",
     "0|1|1|1|1|1|1|1|1|1", "1|1|1|1|1|1|1|1|1|+1", "1|1|1|1| 1|1|1|1|1|1", "1|2|3|4|5|6|7|1|2|3|4", ""],
)
def test_read_judgments_checks_tipi_payloads(payload):
    source = f"subject_id,stimulus_id,kind,payload\ns1,v,tipi,1|1|1|1|1|1|1|1|1|1\ns2,v,tipi,{payload}\n"
    with pytest.raises(DomainError) as err:
        read_judgments(source)
    assert str(err.value) == f"row 3: bad tipi payload {payload!r}"


def test_read_judgments_tipi_items():
    records = read_judgments("s1, v ,tipi, 7|1|2|3|4|5|6|07|1|2 \n")
    assert records == [JudgmentRecord("s1", "v", "tipi", (7, 1, 2, 3, 4, 5, 6, 7, 1, 2))]
    assert records[0].choice is None and records[0].why is None


def test_read_judgments_reads_an_item_the_same_with_any_leading_zeros():
    records = read_judgments(
        "s1,v,tipi,7|07|007|7|07|007|7|07|007|7\n"
        "s2,v,tipi,007|07|7|1|01|001|2|02|002|0003\n"
    )
    assert [r.tipi_items for r in records] == [(7,) * 10, (7, 7, 7, 1, 1, 1, 2, 2, 2, 3)]


def test_read_judgments_checks_each_call_afresh():
    good = "s1,v,tipi,1|2|3|4|5|6|7|1|2|3\ns2,v,why,other\n"
    assert len(read_judgments(good)) == 2
    with pytest.raises(DomainError, match=re.escape("row 3: bad tipi payload '1|2|3|4|5|6|7|1|2|8'")):
        read_judgments(good + "s3,v,tipi,1|2|3|4|5|6|7|1|2|8\n")
    with pytest.raises(DomainError, match=re.escape("row 2: unknown why categories ['odd']")):
        read_judgments("s1,v,why,other\ns2,v,why,other|odd\n")
    # a call that failed leaves nothing behind for the next
    assert len(read_judgments(good)) == 2


def test_read_judgments_names_a_late_bad_why_payload():
    rows = [f"s{k},v,why,{'other|adapted_animated' if k % 2 else ''}\n" for k in range(500)]
    source = "".join(rows) + "s500,v,why,adapted_animated|weird\n" + "s501,v,why,other\n"
    with pytest.raises(DomainError) as err:
        read_judgments(source)
    assert str(err.value) == "row 501: unknown why categories ['weird']"


def test_read_judgments_gives_a_repeated_why_payload_equal_sets():
    records = read_judgments("s1,v,why,other|adapted_animated\ns2,w,why,other|adapted_animated\ns3,v,why,\n")
    assert records[0].why == records[1].why == frozenset({"other", "adapted_animated"})
    assert records[2].why == frozenset()
    assert [(r.subject_id, r.stimulus_id) for r in records] == [("s1", "v"), ("s2", "w"), ("s3", "v")]


# --- reference equivalence of the reader ----------------------------------


@dataclass(frozen=True)
class ReferenceRecord:
    subject_id: str
    stimulus_id: str
    kind: str
    tipi_items: tuple[int, ...] | None = None
    choice: str | None = None
    why: frozenset[str] | None = None


def reference_read_judgments(source: str) -> list[ReferenceRecord]:
    """The reader as it was before TIPI payloads were checked at read time."""
    records: list[ReferenceRecord] = []
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
            records.append(ReferenceRecord(subject_id, stimulus_id, kind, tipi_items=items))
        elif kind == "preference":
            if payload not in PREFERENCE_CHOICES:
                raise DomainError(f"row {row_number}: preference must be A or NA, got {payload!r}")
            records.append(ReferenceRecord(subject_id, stimulus_id, kind, choice=payload))
        elif kind == "why":
            labels = frozenset(p for p in payload.split("|") if p)
            unknown = labels - set(WHY_CATEGORIES)
            if unknown:
                raise DomainError(f"row {row_number}: unknown why categories {sorted(unknown)}")
            records.append(ReferenceRecord(subject_id, stimulus_id, kind, why=labels))
        else:
            raise DomainError(f"row {row_number}: unknown record kind {kind!r}")
    return records


def tipi_payload_is_valid(payload: str) -> bool:
    items = payload.split("|")
    return len(items) == 10 and all(i.isascii() and i.isdigit() and 1 <= int(i) <= 7 for i in items)


def reader_outcome(read, source: str):
    try:
        return [(r.subject_id, r.stimulus_id, r.kind, r.tipi_items, r.choice, r.why) for r in read(source)]
    except GesturecError as exc:
        return type(exc), str(exc)


PAD = st.sampled_from(["", "", " ", "  ", "\t"])
IDS = st.sampled_from(["s1", "s02", "", "a,b", 'say "hi"', "#x", "garden_ABAB", "storm/F-extravert/A"])
TIPI_PAYLOADS = st.lists(st.integers(1, 7), min_size=10, max_size=10).flatmap(
    lambda xs: st.sampled_from(["|".join(map(str, xs)), "|".join(f"0{x}" for x in xs)])
)
BAD_TIPI_PAYLOADS = st.lists(
    st.sampled_from(["0", "8", "9", "10", "-1", "+3", "2_0", " 3", "\u0663", "x", ""] + list("1234567")),
    min_size=1, max_size=11,
).map("|".join)
WHY_PAYLOADS = st.lists(st.sampled_from(list(WHY_CATEGORIES) + [""]), max_size=4).map("|".join)
BAD_WHY_PAYLOADS = st.lists(st.sampled_from(list(WHY_CATEGORIES) + ["weird", " other"]), min_size=1, max_size=3).map(
    "|".join
)
# Valid rows of each kind three times as often as a malformed one.
KINDED = st.one_of(
    *[
        st.tuples(st.just("tipi"), TIPI_PAYLOADS),
        st.tuples(st.just("preference"), st.sampled_from(PREFERENCE_CHOICES)),
        st.tuples(st.just("why"), WHY_PAYLOADS),
    ] * 3,
    st.tuples(st.just("tipi"), BAD_TIPI_PAYLOADS),
    st.tuples(st.just("preference"), st.sampled_from(["a", "MAYBE", "", "A|NA"])),
    st.tuples(st.just("why"), BAD_WHY_PAYLOADS),
    st.tuples(st.sampled_from(["Tipi", "other", "", "kind"]), st.one_of(TIPI_PAYLOADS, WHY_PAYLOADS)),
)


@st.composite
def judgment_rows(draw):
    kind, payload = draw(KINDED)
    row = [draw(IDS), draw(IDS), kind, payload]
    row = [draw(PAD) + cell + draw(PAD) for cell in row]
    shape = draw(st.sampled_from(["four"] * 18 + ["three", "five"]))
    return row[:3] if shape == "three" else row + ["extra"] if shape == "five" else row


LINES = st.one_of(
    *[judgment_rows()] * 6,
    st.sampled_from(["", "# a comment, with a comma", '#"quoted" note', "   "]),
)
HEADERS = st.sampled_from([
    None,
    ["subject_id", "stimulus_id", "kind", "payload"],
    [" subject_id ", "stimulus_id\t", "kind"],
    ["subject_id", "stimulus_id", "kind", "payload", "notes"],
    ["Subject_id", "stimulus_id", "kind", "payload"],
])


@given(HEADERS, st.lists(LINES, max_size=8), st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
       st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=600, deadline=None)
def test_reader_matches_reference_reader(header, lines, quoting, newline):
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator=newline)
    for line in ([header] if header else []) + lines:
        if isinstance(line, str):
            out.write(line + newline)
        else:
            writer.writerow(line)
    source = out.getvalue()
    got = reader_outcome(read_judgments, source)
    expected = reader_outcome(reference_read_judgments, source)
    if got == expected:
        return
    # The one allowed difference: a TIPI payload the reference let through
    # (to fail later in tipi_score) is rejected at its row.
    assert got[0] is DomainError, (got, expected)
    m = re.fullmatch(r"row (\d+): bad tipi payload (.*)", got[1])
    assert m, (got, expected)
    assert not tipi_payload_is_valid(ast.literal_eval(m.group(2)))
    if isinstance(expected, tuple):  # the reference failed, but at a later row
        assert int(re.match(r"row (\d+):", expected[1]).group(1)) > int(m.group(1))
