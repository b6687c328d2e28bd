from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np
import pytest

from conftest import DATA_DIR
from gesturec.analysis import (
    JudgmentRecord,
    anova,
    one_sample_ttest,
    preference_table,
    read_judgments,
    tipi_score,
    why_category_table,
)
from gesturec.errors import DomainError, EmptyCellError, StatError
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


def _unbalanced_dataset(rng):
    observations = []
    for p, g, s in itertools.product(("p0", "p1"), ("g0", "g1"), ("s0", "s1", "s2")):
        for _ in range(rng.randint(2, 6)):
            shift = (0.8 if p == "p1" else 0.0) + (0.5 if g == "g1" else 0.0) + int(s[1]) * 0.3
            observations.append(({"personality": p, "gender": g, "story": s}, shift + rng.gauss(0.0, 1.0)))
    return observations


@pytest.mark.parametrize("seed", range(5))
def test_anova_matches_nested_lstsq_reference_on_unbalanced_data(seed):
    observations = _unbalanced_dataset(random.Random(seed))
    by_order = {}
    for order in (("personality", "gender", "story"), ("story", "gender", "personality")):
        interactions = tuple(itertools.combinations(order, 2)) + (order,)
        expected = nested_lstsq_anova(observations, order, interactions)
        results = anova(observations, order, interactions)
        assert [r.name for r in results] == list(expected)
        for r in results:
            f_value, p, df = expected[r.name]
            assert r.df == df, r.name
            assert r.value == pytest.approx(f_value, rel=1e-9, abs=1e-9), r.name
            assert r.p_value == pytest.approx(p, rel=1e-9, abs=1e-9), r.name
        by_order[order] = {r.name: r.value for r in results}
    first, second = by_order.values()
    # unbalanced: a main effect's sum of squares depends on what precedes it
    assert first["personality"] != pytest.approx(second["personality"], rel=1e-6)
    assert first["story"] != pytest.approx(second["story"], rel=1e-6)


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


def test_read_judgments_rejects_bad_rows():
    with pytest.raises(DomainError):
        read_judgments("s1,v,preference,MAYBE\n")
    with pytest.raises(DomainError):
        read_judgments("s1,v,why,odd_label\n")
    with pytest.raises(DomainError):
        read_judgments("s1,v,tipi,1|2\n" .replace("1|2", "1|x"))
