import copy
import pickle
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from cloudmorph import (
    FrsThreshold,
    FtarTable,
    ScoreTable,
    build_report,
    gmap,
    gmap_ma,
    gmap_mamf,
    quadrant_classify,
    quadrant_counts,
    read_ftar_csv,
    read_nonmated_csv,
    read_scores_csv,
    threshold_at_fmr,
    write_report_csv,
    write_scatter_csv,
)
from cloudmorph.errors import EmptyScoresError, MissingThresholdError, RaggedDataError
from cloudmorph import metrics
from cloudmorph.cli import _read_pairing_csv
from cloudmorph.metrics import QUADRANTS, SCORES_COLUMNS

# a score row in SCORES_COLUMNS order, with its fields named
Row = namedtuple("Row", SCORES_COLUMNS)
from_rows = ScoreTable.from_rows


def score_row(morph, frs, attempt, s1, s2, morph_type="default"):
    return Row(morph, morph_type, frs, attempt, s1, s2)


def table_rows(table):
    """The rows of a ScoreTable, read from its columns."""
    return [Row(*fields) for fields in zip(
        [table.morph_ids[c] for c in table.morph],
        [table.morph_types[c] for c in table.morph_type],
        [table.frs_ids[c] for c in table.frs],
        table.attempt.tolist(),
        table.scores[:, 0].tolist(),
        table.scores[:, 1].tolist(),
    )]


def oracle_gmap(rows, taus, ftar_map):
    """Brute-force cell enumeration, independent of the implementation."""
    types = sorted({r.morph_type for r in rows})
    systems = sorted({r.frs_id for r in rows})
    attempts = sorted({r.attempt for r in rows})
    table = {}
    for r in rows:
        table[(r.morph_type, r.morph_id, r.attempt, r.frs_id)] = r
    total = 0.0
    for d in types:
        morphs = sorted({r.morph_id for r in rows if r.morph_type == d})
        acc = 0.0
        for j in morphs:
            for i in attempts:
                worst = None
                for l in systems:
                    rec = table[(d, j, i, l)]
                    hit = 1.0 if rec.score_s1 > taus[l] and rec.score_s2 > taus[l] else 0.0
                    value = hit * (1.0 - ftar_map.get((i, l), 0.0))
                    worst = value if worst is None else min(worst, value)
                acc += worst
        total += acc / (len(morphs) * len(attempts))
    return 100.0 * total / len(types)


def oracle_ragged_message(rows):
    """RaggedDataError message for the first duplicate cell in input order,
    else for the first missing cell in type, morph, attempt, system order;
    None for a rectangular table."""
    seen = set()
    for r in rows:
        cell = (r.morph_type, r.morph_id, r.attempt, r.frs_id)
        if cell in seen:
            return (f"duplicate cell: type={r.morph_type!r} morph={r.morph_id!r} "
                    f"attempt={r.attempt} frs={r.frs_id!r}")
        seen.add(cell)
    attempts = sorted({r.attempt for r in rows})
    systems = sorted({r.frs_id for r in rows})
    for d in sorted({r.morph_type for r in rows}):
        for j in sorted({r.morph_id for r in rows if r.morph_type == d}):
            for i in attempts:
                for l in systems:
                    if (d, j, i, l) not in seen:
                        return f"missing cell: type={d!r} morph={j!r} attempt={i} frs={l!r}"
    return None


def oracle_quadrant_counts(rows, taus):
    """Per system, rows by quadrant, from the definition."""
    counts = {f: dict.fromkeys(QUADRANTS, 0) for f in sorted({r.frs_id for r in rows})}
    for r in rows:
        above1, above2 = (s > taus[r.frs_id] for s in (r.score_s1, r.score_s2))
        quadrant = {(True, True): "I", (False, True): "II",
                    (False, False): "III", (True, False): "IV"}[above1, above2]
        counts[r.frs_id][quadrant] += 1
    return counts


def random_table(rng, n_frs=None, n_morphs=None, n_attempts=None, n_types=1):
    n_frs = n_frs or int(rng.integers(1, 6))
    n_morphs = n_morphs or int(rng.integers(1, 21))
    n_attempts = n_attempts or int(rng.integers(1, 6))
    rows = []
    for d in range(n_types):
        for j in range(n_morphs):
            for i in range(1, n_attempts + 1):
                for l in range(n_frs):
                    rows.append(
                        score_row(
                            f"m{j}", f"frs{l}", i,
                            float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                            morph_type=f"type{d}",
                        )
                    )
    taus = {f"frs{l}": float(rng.uniform(0.2, 0.8)) for l in range(n_frs)}
    thresholds = [FrsThreshold(f, t, 0.001) for f, t in taus.items()]
    ftar_map = {}
    for i in range(1, n_attempts + 1):
        for l in range(n_frs):
            if rng.uniform() < 0.5:
                ftar_map[(i, f"frs{l}")] = float(rng.uniform(0, 0.4))
    return rows, taus, thresholds, ftar_map


class TestThresholdAtFmr:
    def test_thousand_scores(self):
        scores = list(range(1, 1001))
        th = threshold_at_fmr(scores, 0.001, frs_id="A")
        assert th.tau == 1000.0
        assert not th.saturated

    def test_four_scores(self):
        th = threshold_at_fmr([1.0, 2.0, 3.0, 4.0], 0.25)
        assert th.tau == 4.0
        assert not th.saturated

    def test_all_ties_saturates(self):
        th = threshold_at_fmr([5.0, 5.0, 5.0], 0.5)
        assert th.tau == 5.0
        assert th.saturated

    def test_empty_scores(self):
        with pytest.raises(EmptyScoresError):
            threshold_at_fmr([], 0.1)

    @pytest.mark.parametrize("fmr", [0.0, 1.0, -0.5, float("nan")])
    def test_fmr_outside_unit_interval(self, fmr):
        with pytest.raises(ValueError, match=r"fmr_target must lie in \(0, 1\)"):
            FrsThreshold("frs1", 0.5, fmr)
        # the rate is checked before the scores are, so it is the error named
        with pytest.raises(ValueError, match=r"fmr_target must lie in \(0, 1\)"):
            threshold_at_fmr([0.1, float("nan"), 0.3], fmr)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score(self, bad):
        with pytest.raises(ValueError, match="non-mated scores must be finite"):
            threshold_at_fmr([0.1, bad, 0.3], 0.5)

    def test_small_sample_warns(self):
        with pytest.warns(UserWarning):
            threshold_at_fmr([0.1, 0.2, 0.3], 0.001)

    def test_oracle_equivalence(self):
        # Oracle: exhaustive scan of sorted unique scores.
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 400))
            scores = np.round(rng.normal(size=n), int(rng.integers(0, 4))).tolist()
            fmr = float(rng.uniform(0.002, 0.5))
            expected_tau, expected_sat = None, None
            ordered = sorted(scores)
            for tau in sorted(set(scores)):
                count = sum(1 for s in ordered if s >= tau)
                if count / n <= fmr:
                    expected_tau, expected_sat = tau, False
                    break
            if expected_tau is None:
                expected_tau, expected_sat = max(scores), True
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                th = threshold_at_fmr(scores, fmr)
            assert th.tau == expected_tau
            assert th.saturated == expected_sat

    def test_downstream_strict_comparison_respects_target(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=5000)
        th = threshold_at_fmr(scores, 0.001)
        achieved = np.mean(scores > th.tau)
        assert achieved <= 0.001


class TestQuadrantClassify:
    threshold = FrsThreshold("A", 0.5, 0.001)

    def test_both_above(self):
        assert quadrant_classify(0.6, 0.7, self.threshold) == "I"

    def test_only_second_above(self):
        assert quadrant_classify(0.4, 0.7, self.threshold) == "II"

    def test_boundary_tie_is_not_above(self):
        assert quadrant_classify(0.5, 0.5, self.threshold) == "III"

    def test_only_first_above(self):
        assert quadrant_classify(0.9, 0.2, self.threshold) == "IV"

    def test_columns_follow_the_scalar_rule(self):
        # _quadrants, behind the counts and the scatter file, classifies
        # every row as quadrant_classify does, a score equal to tau included
        rng = np.random.default_rng(31)
        rows, taus, thresholds, _ = random_table(rng, n_frs=3)
        rows = [r._replace(score_s2=taus[r.frs_id]) if i % 5 == 0 else r
                for i, r in enumerate(rows)]
        table = from_rows(rows)
        by_frs = {t.frs_id: t for t in thresholds}
        quadrant = metrics._quadrants(table, metrics._taus(table, thresholds))
        assert [QUADRANTS[q] for q in quadrant] == [
            quadrant_classify(r.score_s1, r.score_s2, by_frs[r.frs_id]) for r in rows
        ]


class TestGmapFixtures:
    def fixture_rows(self):
        return [
            score_row("A", "frs1", 1, 0.6, 0.7),
            score_row("A", "frs1", 2, 0.6, 0.4),
            score_row("B", "frs1", 1, 0.8, 0.9),
            score_row("B", "frs1", 2, 0.7, 0.6),
        ]

    def test_all_above_is_100(self):
        rows = [score_row("A", "frs1", 1, 0.9, 0.8)]
        assert gmap(from_rows(rows), [FrsThreshold("frs1", 0.5, 0.001)]) == 100.0

    def test_all_below_is_0(self):
        rows = [score_row("A", "frs1", 1, 0.1, 0.2)]
        assert gmap(from_rows(rows), [FrsThreshold("frs1", 0.5, 0.001)]) == 0.0

    def test_hand_counted_75(self):
        # 2 morphs x 2 attempts, one failing cell: (1/4) * 3 * 100 = 75
        value = gmap(from_rows(self.fixture_rows()), [FrsThreshold("frs1", 0.5, 0.001)])
        assert value == pytest.approx(75.0, abs=1e-12)

    def test_hand_counted_62_5_with_ftar(self):
        # FTAR 0.5 on attempt 2: (1/4) * (1 + 0 + 1 + 0.5) * 100 = 62.5
        ftar = FtarTable({(2, "frs1"): 0.5})
        value = gmap(from_rows(self.fixture_rows()), [FrsThreshold("frs1", 0.5, 0.001)], ftar)
        assert value == pytest.approx(62.5, abs=1e-12)

    def test_missing_threshold(self):
        with pytest.raises(MissingThresholdError) as err:
            gmap(from_rows(self.fixture_rows()), [FrsThreshold("other", 0.5, 0.001)])
        assert "frs1" in str(err.value)

    def test_ragged_missing_cell(self):
        rows = self.fixture_rows()[:-1]
        with pytest.raises(RaggedDataError):
            gmap(from_rows(rows), [FrsThreshold("frs1", 0.5, 0.001)])

    def test_duplicate_cell(self):
        rows = self.fixture_rows() + [score_row("A", "frs1", 1, 0.1, 0.1)]
        with pytest.raises(RaggedDataError):
            gmap(from_rows(rows), [FrsThreshold("frs1", 0.5, 0.001)])

    def test_empty_records(self):
        with pytest.raises(EmptyScoresError):
            gmap(from_rows([]), [FrsThreshold("frs1", 0.5, 0.001)])


class TestGmapMa:
    def test_hand_counted_75(self):
        rows = TestGmapFixtures().fixture_rows()
        assert gmap_ma(from_rows(rows), FrsThreshold("frs1", 0.5, 0.001)) == pytest.approx(
            75.0, abs=1e-12
        )

    def test_single_cell_success(self):
        assert gmap_ma(
            from_rows([score_row("A", "frs1", 1, 0.9, 0.8)]), FrsThreshold("frs1", 0.5, 0.001)
        ) == 100.0

    def test_matches_gmap_on_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rows, taus, thresholds, _ = random_table(rng, n_frs=1)
            expected = gmap(from_rows(rows), thresholds, FtarTable())
            assert gmap_ma(from_rows(rows), thresholds[0]) == pytest.approx(expected, abs=1e-12)

    def test_rejects_multiple_types(self):
        rows = [
            score_row("A", "frs1", 1, 0.9, 0.8, morph_type="x"),
            score_row("B", "frs1", 1, 0.9, 0.8, morph_type="y"),
        ]
        with pytest.raises(ValueError):
            gmap_ma(from_rows(rows), FrsThreshold("frs1", 0.5, 0.001))


class TestGmapMamf:
    def test_dominated_by_failing_system(self):
        rows = [
            score_row("A", "frs1", 1, 0.9, 0.9),
            score_row("A", "frs2", 1, 0.1, 0.1),
            score_row("B", "frs1", 1, 0.9, 0.9),
            score_row("B", "frs2", 1, 0.2, 0.1),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        assert gmap_mamf(from_rows(rows), thresholds) == 0.0

    def test_equal_outcomes_match_single_system(self):
        rows = [
            score_row("A", "frs1", 1, 0.9, 0.9),
            score_row("A", "frs2", 1, 0.8, 0.7),
            score_row("B", "frs1", 1, 0.1, 0.9),
            score_row("B", "frs2", 1, 0.2, 0.1),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        expected = gmap_ma(
            from_rows([r for r in rows if r.frs_id == "frs1"]), thresholds[0]
        )
        assert gmap_mamf(from_rows(rows), thresholds) == pytest.approx(expected, abs=1e-12)

    def test_hand_counted_50(self):
        # per-cell minima {1, 0} -> 50
        rows = [
            score_row("A", "frs1", 1, 0.9, 0.9),
            score_row("A", "frs2", 1, 0.8, 0.7),
            score_row("B", "frs1", 1, 0.9, 0.9),
            score_row("B", "frs2", 1, 0.2, 0.1),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        assert gmap_mamf(from_rows(rows), thresholds) == pytest.approx(50.0, abs=1e-12)

    def test_rejects_multiple_types(self):
        rows = [
            score_row("A", "frs1", 1, 0.9, 0.8, morph_type="x"),
            score_row("A", "frs2", 1, 0.9, 0.8, morph_type="x"),
            score_row("B", "frs1", 1, 0.9, 0.8, morph_type="y"),
            score_row("B", "frs2", 1, 0.9, 0.8, morph_type="y"),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        with pytest.raises(ValueError, match="expected a single morph type"):
            gmap_mamf(from_rows(rows), thresholds)

    def test_requires_two_systems(self):
        rows = [score_row("A", "frs1", 1, 0.9, 0.9)]
        with pytest.raises(ValueError):
            gmap_mamf(from_rows(rows), [FrsThreshold("frs1", 0.5, 0.001)])


class TestOracleEquivalence:
    def test_gmap_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for trial in range(60):
            n_types = int(rng.integers(1, 4))
            rows, taus, thresholds, ftar_map = random_table(rng, n_types=n_types)
            expected = oracle_gmap(rows, taus, ftar_map)
            value = gmap(from_rows(rows), thresholds, FtarTable(ftar_map))
            assert value == pytest.approx(expected, abs=1e-12)


class TestMetricProperties:
    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            rows, taus, thresholds, _ = random_table(rng)
            raised = [FrsThreshold(t.frs_id, t.tau + 0.05, t.fmr_target) for t in thresholds]
            assert gmap(from_rows(rows), raised) <= gmap(from_rows(rows), thresholds) + 1e-12

    def test_mamf_bounded_by_min_single_system(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            rows, taus, thresholds, _ = random_table(rng, n_frs=int(rng.integers(2, 6)))
            threshold_map = {t.frs_id: t for t in thresholds}
            per_frs = [
                gmap_ma(from_rows([r for r in rows if r.frs_id == f]), threshold_map[f])
                for f in sorted({r.frs_id for r in rows})
            ]
            assert gmap_mamf(from_rows(rows), thresholds) <= min(per_frs) + 1e-12

    def test_quadrant_one_fraction_equals_gmap_ma(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            rows, taus, thresholds, _ = random_table(rng, n_frs=1)
            th = thresholds[0]
            count_one = sum(1 for r in rows if quadrant_classify(r.score_s1, r.score_s2, th) == "I")
            fraction = count_one / len(rows)
            assert fraction == pytest.approx(gmap_ma(from_rows(rows), th) / 100.0, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(29)
        rows, taus, thresholds, ftar_map = random_table(rng)
        ftar = FtarTable(ftar_map)
        base = gmap(from_rows(rows), thresholds, ftar)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert gmap(from_rows(shuffled), thresholds, ftar) == base


class TestBuildReport:
    def make_inputs(self):
        rows = [
            score_row("A", "frs1", 1, 0.6, 0.7),
            score_row("A", "frs1", 2, 0.6, 0.4),
            score_row("B", "frs1", 1, 0.8, 0.9),
            score_row("B", "frs1", 2, 0.7, 0.6),
            score_row("A", "frs2", 1, 0.9, 0.9),
            score_row("A", "frs2", 2, 0.1, 0.1),
            score_row("B", "frs2", 1, 0.9, 0.9),
            score_row("B", "frs2", 2, 0.9, 0.9),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        return rows, thresholds

    def test_report_values(self):
        rows, thresholds = self.make_inputs()
        report = build_report(from_rows(rows), thresholds)
        assert report.per_frs["frs1"] == pytest.approx(75.0, abs=1e-12)
        assert report.per_frs["frs2"] == pytest.approx(75.0, abs=1e-12)
        # per-cell minima: A1=1, A2=0, B1=1, B2=min(1,1)=1 -> 75
        assert report.cross_frs == pytest.approx(75.0, abs=1e-12)
        assert report.n_morphs == 2
        assert report.n_attempts == 2
        assert report.quadrant_counts["frs1"] == {"I": 3, "II": 0, "III": 0, "IV": 1}

    def test_report_ignores_ftar_for_per_frs(self):
        rows, thresholds = self.make_inputs()
        ftar = FtarTable({(2, "frs1"): 1.0, (2, "frs2"): 1.0})
        report = build_report(from_rows(rows), thresholds, ftar)
        assert report.per_frs["frs1"] == pytest.approx(75.0, abs=1e-12)
        assert report.cross_frs < 75.0

    def test_report_requires_all_thresholds(self):
        rows, thresholds = self.make_inputs()
        with pytest.raises(MissingThresholdError) as err:
            build_report(from_rows(rows), thresholds[:1])
        assert "frs2" in str(err.value)

    def test_single_system_report_cross_equals_per_frs(self):
        rows, thresholds = self.make_inputs()
        single = [r for r in rows if r.frs_id == "frs1"]
        report = build_report(from_rows(single), thresholds[:1])
        assert report.cross_frs == report.per_frs["frs1"]

    def test_ragged_table_names_the_same_cell_as_gmap(self):
        rows = [
            score_row("A", "frs1", 1, 0.6, 0.7),
            score_row("A", "frs1", 2, 0.6, 0.7),
            score_row("B", "frs1", 1, 0.6, 0.7),
            score_row("A", "frs2", 1, 0.6, 0.7),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        with pytest.raises(RaggedDataError) as from_gmap:
            gmap(from_rows(rows), thresholds)
        with pytest.raises(RaggedDataError) as from_report:
            build_report(from_rows(rows), thresholds)
        assert "morph='A' attempt=2 frs='frs2'" in str(from_gmap.value)
        assert str(from_report.value) == str(from_gmap.value)

    def test_values_equal_gmap_exactly_on_random_tables(self):
        rng = np.random.default_rng(29)
        for n_types in (1, 2, 3):
            for _ in range(10):
                rows, _, thresholds, ftar_map = random_table(rng, n_types=n_types)
                ftar = FtarTable(ftar_map)
                report = build_report(from_rows(rows), thresholds, ftar)
                assert report.cross_frs == gmap(from_rows(rows), thresholds, ftar)
                for threshold in thresholds:
                    subset = [r for r in rows if r.frs_id == threshold.frs_id]
                    assert report.per_frs[threshold.frs_id] == gmap(from_rows(subset), [threshold])
                for morph_type in sorted({r.morph_type for r in rows}):
                    typed = [r for r in rows if r.morph_type == morph_type]
                    typed_report = build_report(from_rows(typed), thresholds, ftar)
                    assert typed_report.cross_frs == gmap(from_rows(typed), thresholds, ftar)
                    for threshold in thresholds:
                        subset = [r for r in typed if r.frs_id == threshold.frs_id]
                        assert (typed_report.per_frs[threshold.frs_id]
                                == gmap_ma(from_rows(subset), threshold))

    def test_report_does_not_call_gmap(self, monkeypatch):
        rows, thresholds = self.make_inputs()
        expected = build_report(from_rows(rows), thresholds)

        def no_gmap(*args, **kwargs):
            raise AssertionError("gmap called")

        monkeypatch.setattr(metrics, "gmap", no_gmap)
        assert build_report(from_rows(rows), thresholds) == expected


class TestScoreTable:
    def test_sequence_of_records(self):
        rows = TestBuildReport().make_inputs()[0] + [
            score_row("C", "frs1", 3, 0.9, 0.8, morph_type="other"),
        ]
        table = from_rows(rows)
        assert len(table) == len(rows)
        assert table_rows(table) == rows
        assert table.scores.shape == (len(rows), 2)
        assert table.morph_ids == ("A", "B", "C")
        assert table.morph_types == ("default", "other")
        assert table.frs_ids == ("frs1", "frs2")

    def test_table_path_matches_record_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            rows, taus, thresholds, ftar_map = random_table(
                rng, n_types=int(rng.integers(1, 4)), n_morphs=int(rng.integers(2, 9))
            )
            rng.shuffle(rows)
            ftar = FtarTable(ftar_map)
            table = from_rows(rows)
            assert table_rows(table) == rows
            assert gmap(table, thresholds, ftar) == pytest.approx(
                oracle_gmap(rows, taus, ftar_map), abs=1e-12
            )
            report = build_report(from_rows(rows), thresholds, ftar)
            assert report.cross_frs == gmap(from_rows(rows), thresholds, ftar)
            assert report.quadrant_counts == oracle_quadrant_counts(rows, taus)
            assert quadrant_counts(table, thresholds) == report.quadrant_counts
            assert report.n_morphs == len({(r.morph_type, r.morph_id) for r in rows})

            dropped = list(rows)
            del dropped[int(rng.integers(len(dropped)))]
            copy = rows[int(rng.integers(len(rows)))]
            doubled = list(rows)
            doubled.insert(int(rng.integers(len(rows) + 1)), score_row(
                copy.morph_id, copy.frs_id, copy.attempt, 0.5, 0.5, copy.morph_type))
            for broken in (dropped, doubled, dropped + doubled[:3]):
                expected = oracle_ragged_message(broken)
                if expected is None:  # a dropped lone cell can leave a rectangle
                    continue
                for compute in (gmap, build_report):
                    with pytest.raises(RaggedDataError) as err:
                        compute(from_rows(broken), thresholds, ftar)
                    assert str(err.value) == expected

            kept = [t for t in thresholds if t.frs_id != sorted(taus)[0]]
            for compute in (gmap, build_report, quadrant_counts):
                with pytest.raises(MissingThresholdError) as err:
                    compute(table, kept)
                assert str(err.value) == f"no threshold for frs_id {sorted(taus)[0]!r}"

    def test_arrays_are_read_only_and_not_copied(self, tmp_path):
        # a write such as table.attempt[0] = 0 would skip the row rule
        path = tmp_path / "scores.csv"
        path.write_text("morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
                        "A,default,frs1,1,0.6,0.7\n")
        columns = (np.zeros(1, np.int32), np.zeros(1, np.int32), np.zeros(1, np.int32),
                   np.ones(1, np.int64), np.full((1, 2), 0.5))
        built = ScoreTable(("A",), ("default",), ("frs1",), *columns)
        tables = (from_rows([score_row("A", "frs1", 1, 0.6, 0.7)]), read_scores_csv(path), built)
        for table in tables:
            for name in ("morph", "morph_type", "frs", "attempt", "scores"):
                assert not getattr(table, name).flags.writeable
            with pytest.raises(ValueError):
                table.attempt[0] = 0
            with pytest.raises(ValueError):
                table.scores[0, 0] = np.nan
        assert all(a is b for a, b in zip(
            columns, (built.morph, built.morph_type, built.frs, built.attempt, built.scores)))

    def test_n_morphs_counts_type_morph_rows(self):
        rows = [
            score_row("A", "frs1", 1, 0.9, 0.8, morph_type="t1"),
            score_row("A", "frs1", 1, 0.9, 0.8, morph_type="t2"),
            score_row("B", "frs1", 1, 0.9, 0.8, morph_type="t2"),
        ]
        assert build_report(from_rows(rows), [FrsThreshold("frs1", 0.5, 0.001)]).n_morphs == 3

    def test_read_keeps_no_object_per_row(self, tmp_path):
        # typed columns take 36 B per row (three int32 codes, an int64
        # attempt, two float64 scores); one Python object per row took ~370 B
        rng = np.random.default_rng(43)
        rows = 20000
        lines = ["morph_id,morph_type,frs_id,attempt,score_s1,score_s2"]
        for i in range(rows):
            j, rest = divmod(i, 12)
            lines.append(f"m{j},t{j % 2},frs{rest % 3},{rest // 3 + 1},"
                         f"{rng.uniform()!r},{rng.uniform()!r}")
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            table = read_scores_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == rows
        assert peak / rows < 100


class TestCsvInterfaces:
    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
            "A,default,frs1,1,0.6,0.7\n"
            "A,default,frs1,2,0.6,0.4\n"
        )
        table = read_scores_csv(path)
        assert len(table) == 2
        assert table.scores.tolist() == [[0.6, 0.7], [0.6, 0.4]]
        assert table.attempt.tolist() == [1, 2]

    def test_scores_bad_row_names_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
            "A,default,frs1,1,0.6,0.7\n"
            "A,default,frs1,not_an_int,0.6,0.4\n"
        )
        with pytest.raises(ValueError) as err:
            read_scores_csv(path)
        assert "row 3" in str(err.value)

    def test_scores_row_with_extra_field_is_rejected(self, tmp_path):
        # the dropped 0.1 would have made the cell a failure
        path = tmp_path / "scores.csv"
        path.write_text(
            "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
            "A,default,frs1,1,0.9,0.8,0.1\n"
        )
        with pytest.raises(ValueError) as err:
            read_scores_csv(path)
        assert str(err.value) == f"{path}: row 2: 7 fields, the header has 6"

    def test_scores_short_row_names_the_empty_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
            "A,default,frs1,1,0.9\n"
        )
        with pytest.raises(ValueError) as err:
            read_scores_csv(path)
        assert str(err.value) == f"{path}: row 2: no value for column 'score_s2'"

    def test_scores_attempt_beyond_64_bits_names_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
            f"A,default,frs1,{2**63},0.9,0.8\n"
        )
        with pytest.raises(ValueError, match="row 2: attempt"):
            read_scores_csv(path)

    def test_scores_missing_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("morph_id,frs_id,attempt,score_s1,score_s2\nA,frs1,1,0.6,0.7\n")
        with pytest.raises(ValueError) as err:
            read_scores_csv(path)
        assert "morph_type" in str(err.value)

    @pytest.mark.parametrize(
        "reader, header, message",
        [(read_scores_csv, "morph_id,morph_type,frs_id,attempt,score_s1,score_s2", "no score rows"),
         (read_nonmated_csv, "frs_id,score", "no non-mated rows")],
        ids=["scores", "nonmated"],
    )
    def test_header_only_file_is_empty(self, reader, header, message, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        with pytest.raises(EmptyScoresError) as err:
            reader(path)
        assert str(err.value) == f"{path}: {message}"

    def test_nonmated_reader(self, tmp_path):
        path = tmp_path / "nm.csv"
        path.write_text("frs_id,score\nfrs1,0.1\nfrs1,0.2\nfrs2,0.3\n")
        scores = read_nonmated_csv(path)
        assert scores == {"frs1": [0.1, 0.2], "frs2": [0.3]}

    def test_ftar_reader(self, tmp_path):
        path = tmp_path / "ftar.csv"
        path.write_text("frs_id,attempt,ftar\nfrs1,1,0.25\nfrs2,2,0\n")
        table = read_ftar_csv(path)
        assert table.get(1, "frs1") == 0.25
        assert table.get(2, "frs2") == 0.0
        assert table.get(9, "frs1") == 0.0

    def test_ftar_duplicate_row_names_it(self, tmp_path):
        path = tmp_path / "ftar.csv"
        path.write_text("frs_id,attempt,ftar\nfrs1,1,0.25\nfrs2,1,0\nfrs1,1,0.5\n")
        with pytest.raises(ValueError) as err:
            read_ftar_csv(path)
        assert "row 4" in str(err.value)
        assert "'frs1'" in str(err.value)

    def test_ftar_rates_are_read_only(self):
        # a write into rates would skip the entry check: 7.0 gave G-MAP -600
        rows = [score_row("A", frs, 1, 0.9, 0.9) for frs in ("A", "B")]
        thresholds = [FrsThreshold(frs, 0.5, 0.001) for frs in ("A", "B")]
        ftar = FtarTable({(1, "A"): 0.1})
        assert gmap(from_rows(rows), thresholds, ftar) == pytest.approx(90.0)
        with pytest.raises(TypeError):
            ftar.rates[(1, "A")] = 7.0
        assert gmap(from_rows(rows), thresholds, ftar) == pytest.approx(90.0)
        assert ftar.rates == {(1, "A"): 0.1}
        assert ftar == FtarTable({(1, "A"): 0.1})
        assert pickle.loads(pickle.dumps(ftar)) == copy.deepcopy(ftar) == ftar

    def test_ftar_range_validation(self):
        with pytest.raises(ValueError):
            FtarTable({(1, "frs1"): 1.5})

    @pytest.mark.parametrize("attempt", ["0", "-3"])
    def test_ftar_attempt_below_1_names_row(self, attempt, tmp_path):
        # score attempts count from 1, so such a row would never be used
        path = tmp_path / "ftar.csv"
        path.write_text(f"frs_id,attempt,ftar\nfrs1,1,0.25\nfrs1,{attempt},0.5\n")
        with pytest.raises(ValueError) as err:
            read_ftar_csv(path)
        assert str(err.value).startswith(f"{path}: row 3: ")
        assert f"attempt {attempt} must be >= 1" in str(err.value)

    @pytest.mark.parametrize("attempt", [0, -3])
    def test_ftar_table_attempt_below_1(self, attempt):
        with pytest.raises(ValueError, match="must be >= 1"):
            FtarTable({(attempt, "frs1"): 0.2})

    @pytest.mark.parametrize("attempt", [1.5, True, 2**63], ids=["float", "bool", "2**63"])
    def test_ftar_table_and_reader_share_the_entry_rule(self, attempt, tmp_path):
        # FtarTable({(1.5, "A"): 0.1}) was read as attempt 1
        path = tmp_path / "ftar.csv"
        path.write_text(f"frs_id,attempt,ftar\nA,{attempt},0.1\n")
        with pytest.raises(ValueError) as from_csv:
            read_ftar_csv(path)
        with pytest.raises(ValueError) as in_memory:
            FtarTable({(attempt, "A"): 0.1})
        assert str(from_csv.value) == f"{path}: row 2: {in_memory.value}"

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_ftar_rate_outside_unit_interval(self, rate, tmp_path):
        with pytest.raises(ValueError, match=r"for frs_id 'A' must lie in \[0, 1\]"):
            FtarTable({(1, "A"): rate})
        path = tmp_path / "ftar.csv"
        path.write_text(f"frs_id,attempt,ftar\nA,1,{rate}\n")
        with pytest.raises(ValueError, match=r"row 2: FTAR .* must lie in \[0, 1\]"):
            read_ftar_csv(path)

    def test_report_csv_format(self, tmp_path):
        rows, thresholds = TestBuildReport().make_inputs()
        report = build_report(from_rows(rows), thresholds)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frs_id,gmap_ma,quad1,quad2,quad3,quad4"
        assert lines[1].startswith("frs1,75.000000,3,0,0,1")
        assert lines[-1] == "MAMF,75.000000"

    def test_scatter_csv_format(self, tmp_path):
        rows, thresholds = TestBuildReport().make_inputs()
        path = tmp_path / "scatter.csv"
        write_scatter_csv(from_rows(rows), thresholds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "morph_id,frs_id,attempt,score_s1,score_s2,quadrant"
        assert len(lines) == 1 + len(rows)
        assert lines[1] == "A,frs1,1,0.6,0.7,I"
        assert lines[2] == "A,frs1,2,0.6,0.4,IV"

    def test_scatter_csv_rejects_bad_records_before_writing(self, tmp_path):
        rows, thresholds = TestBuildReport().make_inputs()
        path = tmp_path / "scatter.csv"
        with pytest.raises(MissingThresholdError):
            write_scatter_csv(from_rows([*rows, score_row("C", "frs3", 1, 0.9, 0.8)]),
                              thresholds, path)
        assert not path.exists()

    def test_quadrant_counts_match_report(self):
        rows, thresholds = TestBuildReport().make_inputs()
        counts = quadrant_counts(from_rows(rows), thresholds)
        assert counts == build_report(from_rows(rows), thresholds).quadrant_counts
        assert list(counts) == ["frs1", "frs2"]
        with pytest.raises(MissingThresholdError):
            quadrant_counts(from_rows(rows), thresholds[:1])

    def test_from_rows_validation(self):
        # a row holds six fields, so one with other than two scores is named
        # by its position and field count
        good = ("m", "default", "A", 1, 0.5, 0.6)
        for scores in ((0.5,), (0.5, 0.6, 0.7)):
            with pytest.raises(ValueError) as err:
                from_rows([good, ("m", "default", "A", 2, *scores)])
            assert str(err.value) == f"row 2 has {4 + len(scores)} fields, not 6"
        with pytest.raises(ValueError, match="attempt 0 must be >= 1"):
            from_rows([score_row("m", "A", 0, 0.5, 0.6)])
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="finite"):
                from_rows([score_row("m", "A", 1, float(bad), 0.6)])
        with pytest.raises(EmptyScoresError, match="no score rows"):
            from_rows([])

    @pytest.mark.parametrize("attempt", [1.5, True, 2**63], ids=["float", "bool", "2**63"])
    def test_from_rows_attempt_gets_the_csv_message(self, attempt, tmp_path):
        # an in-memory attempt passes the rule the CSV reader applies to its
        # text: 1.5 and True were read as attempt 1, and 2**63 failed later
        path = tmp_path / "scores.csv"
        path.write_text("morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
                        f"A,default,frs1,{attempt},0.9,0.8\n")
        with pytest.raises(ValueError) as from_csv:
            read_scores_csv(path)
        with pytest.raises(ValueError) as in_memory:
            from_rows([score_row("A", "frs1", attempt, 0.9, 0.8)])
        assert str(from_csv.value) == f"{path}: row 2: {in_memory.value}"

    def test_from_rows_reads_each_row_in_column_order(self):
        table = from_rows([("m1", "t", "frs2", "2", "0.25", 0.5), ("m0", "t", "frs1", 1, 1, 2)])
        assert table_rows(table) == [("m1", "t", "frs2", 2, 0.25, 0.5),
                                     ("m0", "t", "frs1", 1, 1.0, 2.0)]


# Every CSV input is read by one row rule. Per reader: its function, its
# header, two good rows, the column a short row lacks, and what it read.
ROW_RULE_READERS = {
    "scores": (
        read_scores_csv, "morph_id,morph_type,frs_id,attempt,score_s1,score_s2",
        ["A,default,frs1,1,0.6,0.7", "A,default,frs1,2,0.6,0.4"], "score_s2",
        lambda table: (table.morph_ids, table.attempt.tolist(), table.scores.tolist()),
    ),
    "nonmated": (read_nonmated_csv, "frs_id,score", ["frs1,0.5", "frs2,0.25"], "score",
                 lambda scores: scores),
    "ftar": (read_ftar_csv, "frs_id,attempt,ftar", ["frs1,1,0.25", "frs1,2,0"], "ftar",
             lambda table: table.rates),
    "pairing": (_read_pairing_csv, "subject_a,subject_b,morph_id,alpha",
                ["a.ply,b.ply,m1,0.5", "c.ply,d.ply,m2,"], "morph_id", lambda pairs: pairs),
}


@pytest.mark.parametrize("name", list(ROW_RULE_READERS))
class TestRowRule:
    def read(self, name, tmp_path, lines):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(line + "\n" for line in lines))
        return path, ROW_RULE_READERS[name][0]

    def short_row(self, name):
        _, header, good, column, _ = ROW_RULE_READERS[name]
        return ",".join(good[0].split(",")[: header.split(",").index(column)])

    def test_short_row_names_its_column(self, name, tmp_path):
        _, header, good, column, _ = ROW_RULE_READERS[name]
        path, reader = self.read(name, tmp_path, [header, good[0], self.short_row(name)])
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}: row 3: no value for column {column!r}"

    def test_blank_line_is_counted(self, name, tmp_path):
        _, header, good, _, _ = ROW_RULE_READERS[name]
        width = len(header.split(","))
        path, reader = self.read(name, tmp_path, [header, good[0], "", good[1] + ",extra"])
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}: row 4: {width + 1} fields, the header has {width}"

    def test_extra_field_is_rejected(self, name, tmp_path):
        _, header, good, _, _ = ROW_RULE_READERS[name]
        width = len(header.split(","))
        path, reader = self.read(name, tmp_path, [header, good[0] + ",extra"])
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}: row 2: {width + 1} fields, the header has {width}"

    def test_repeated_column_reads_its_last_occurrence(self, name, tmp_path):
        _, header, good, column, summary = ROW_RULE_READERS[name]
        plain, reader = self.read(name, tmp_path, [header, *good])
        expected = summary(reader(plain))
        # the first occurrence holds "junk", which would be read otherwise or fail
        lines = [f"{column},{header}", *(f"junk,{row}" for row in good)]
        path, _ = self.read(name, tmp_path, lines)
        assert summary(reader(path)) == expected
        # a row that holds only the first occurrence lacks the column
        path, _ = self.read(name, tmp_path, [*lines, f"junk,{self.short_row(name)}"])
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}: row 4: no value for column {column!r}"

    def test_byte_order_mark_is_skipped_and_other_bytes_name_the_file(self, name, tmp_path):
        _, header, good, _, summary = ROW_RULE_READERS[name]
        plain, reader = self.read(name, tmp_path, [header, *good])
        expected = summary(reader(plain))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert summary(reader(marked)) == expected
        # a Latin-1 byte in the last row, so the header decodes first
        latin = tmp_path / "latin.csv"
        latin.write_bytes(plain.read_bytes() + good[0].encode() + b"\xff\n")
        with pytest.raises(ValueError) as err:
            reader(latin)
        assert str(err.value).startswith(f"{latin}: 'utf-8' codec can't decode byte 0xff")
        # and in the header
        latin.write_bytes(b"\xff" + plain.read_bytes())
        with pytest.raises(ValueError) as err:
            reader(latin)
        assert str(err.value).startswith(f"{latin}: 'utf-8' codec can't decode byte 0xff")
