import numpy as np
import pytest

from cloudmorph import (
    FrsThreshold,
    FtarTable,
    ScoreRecord,
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
from cloudmorph.errors import (
    EmptyScoresError,
    MissingThresholdError,
    RaggedDataError,
    UnsupportedArityError,
)
from cloudmorph import metrics
from cloudmorph.metrics import QUADRANTS


def record(morph, frs, attempt, s1, s2, morph_type="default"):
    return ScoreRecord(morph, frs, attempt, (s1, s2), morph_type)


def oracle_gmap(records, taus, ftar_map):
    """Brute-force cell enumeration, independent of the implementation."""
    types = sorted({r.morph_type for r in records})
    systems = sorted({r.frs_id for r in records})
    attempts = sorted({r.attempt_index for r in records})
    table = {}
    for r in records:
        table[(r.morph_type, r.morph_id, r.attempt_index, r.frs_id)] = r
    total = 0.0
    for d in types:
        morphs = sorted({r.morph_id for r in records if r.morph_type == d})
        acc = 0.0
        for j in morphs:
            for i in attempts:
                worst = None
                for l in systems:
                    rec = table[(d, j, i, l)]
                    hit = 1.0 if all(s > taus[l] for s in rec.subject_scores) else 0.0
                    value = hit * (1.0 - ftar_map.get((i, l), 0.0))
                    worst = value if worst is None else min(worst, value)
                acc += worst
        total += acc / (len(morphs) * len(attempts))
    return 100.0 * total / len(types)


def random_table(rng, n_frs=None, n_morphs=None, n_attempts=None, n_types=1):
    n_frs = n_frs or int(rng.integers(1, 6))
    n_morphs = n_morphs or int(rng.integers(1, 21))
    n_attempts = n_attempts or int(rng.integers(1, 6))
    records = []
    for d in range(n_types):
        for j in range(n_morphs):
            for i in range(1, n_attempts + 1):
                for l in range(n_frs):
                    records.append(
                        record(
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
    return records, taus, thresholds, ftar_map


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
        assert quadrant_classify(record("m", "A", 1, 0.6, 0.7), self.threshold) == "I"

    def test_only_second_above(self):
        assert quadrant_classify(record("m", "A", 1, 0.4, 0.7), self.threshold) == "II"

    def test_boundary_tie_is_not_above(self):
        assert quadrant_classify(record("m", "A", 1, 0.5, 0.5), self.threshold) == "III"

    def test_only_first_above(self):
        assert quadrant_classify(record("m", "A", 1, 0.9, 0.2), self.threshold) == "IV"

    def test_arity_guard(self):
        rec = ScoreRecord("m", "A", 1, (0.1, 0.2, 0.3))
        with pytest.raises(UnsupportedArityError):
            quadrant_classify(rec, self.threshold)


class TestGmapFixtures:
    def fixture_records(self):
        return [
            record("A", "frs1", 1, 0.6, 0.7),
            record("A", "frs1", 2, 0.6, 0.4),
            record("B", "frs1", 1, 0.8, 0.9),
            record("B", "frs1", 2, 0.7, 0.6),
        ]

    def test_all_above_is_100(self):
        records = [record("A", "frs1", 1, 0.9, 0.8)]
        assert gmap(records, [FrsThreshold("frs1", 0.5, 0.001)]) == 100.0

    def test_all_below_is_0(self):
        records = [record("A", "frs1", 1, 0.1, 0.2)]
        assert gmap(records, [FrsThreshold("frs1", 0.5, 0.001)]) == 0.0

    def test_hand_counted_75(self):
        # 2 morphs x 2 attempts, one failing cell: (1/4) * 3 * 100 = 75
        value = gmap(self.fixture_records(), [FrsThreshold("frs1", 0.5, 0.001)])
        assert value == pytest.approx(75.0, abs=1e-12)

    def test_hand_counted_62_5_with_ftar(self):
        # FTAR 0.5 on attempt 2: (1/4) * (1 + 0 + 1 + 0.5) * 100 = 62.5
        ftar = FtarTable({(2, "frs1"): 0.5})
        value = gmap(self.fixture_records(), [FrsThreshold("frs1", 0.5, 0.001)], ftar)
        assert value == pytest.approx(62.5, abs=1e-12)

    def test_missing_threshold(self):
        with pytest.raises(MissingThresholdError) as err:
            gmap(self.fixture_records(), [FrsThreshold("other", 0.5, 0.001)])
        assert "frs1" in str(err.value)

    def test_ragged_missing_cell(self):
        records = self.fixture_records()[:-1]
        with pytest.raises(RaggedDataError):
            gmap(records, [FrsThreshold("frs1", 0.5, 0.001)])

    def test_duplicate_cell(self):
        records = self.fixture_records() + [record("A", "frs1", 1, 0.1, 0.1)]
        with pytest.raises(RaggedDataError):
            gmap(records, [FrsThreshold("frs1", 0.5, 0.001)])

    def test_empty_records(self):
        with pytest.raises(EmptyScoresError):
            gmap([], [FrsThreshold("frs1", 0.5, 0.001)])


class TestGmapMa:
    def test_hand_counted_75(self):
        records = TestGmapFixtures().fixture_records()
        assert gmap_ma(records, FrsThreshold("frs1", 0.5, 0.001)) == pytest.approx(
            75.0, abs=1e-12
        )

    def test_single_cell_success(self):
        assert gmap_ma(
            [record("A", "frs1", 1, 0.9, 0.8)], FrsThreshold("frs1", 0.5, 0.001)
        ) == 100.0

    def test_matches_gmap_on_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            records, taus, thresholds, _ = random_table(rng, n_frs=1)
            expected = gmap(records, thresholds, FtarTable())
            assert gmap_ma(records, thresholds[0]) == pytest.approx(expected, abs=1e-12)

    def test_rejects_multiple_types(self):
        records = [
            record("A", "frs1", 1, 0.9, 0.8, morph_type="x"),
            record("B", "frs1", 1, 0.9, 0.8, morph_type="y"),
        ]
        with pytest.raises(ValueError):
            gmap_ma(records, FrsThreshold("frs1", 0.5, 0.001))


class TestGmapMamf:
    def test_dominated_by_failing_system(self):
        records = [
            record("A", "frs1", 1, 0.9, 0.9),
            record("A", "frs2", 1, 0.1, 0.1),
            record("B", "frs1", 1, 0.9, 0.9),
            record("B", "frs2", 1, 0.2, 0.1),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        assert gmap_mamf(records, thresholds) == 0.0

    def test_equal_outcomes_match_single_system(self):
        records = [
            record("A", "frs1", 1, 0.9, 0.9),
            record("A", "frs2", 1, 0.8, 0.7),
            record("B", "frs1", 1, 0.1, 0.9),
            record("B", "frs2", 1, 0.2, 0.1),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        expected = gmap_ma(
            [r for r in records if r.frs_id == "frs1"], thresholds[0]
        )
        assert gmap_mamf(records, thresholds) == pytest.approx(expected, abs=1e-12)

    def test_hand_counted_50(self):
        # per-cell minima {1, 0} -> 50
        records = [
            record("A", "frs1", 1, 0.9, 0.9),
            record("A", "frs2", 1, 0.8, 0.7),
            record("B", "frs1", 1, 0.9, 0.9),
            record("B", "frs2", 1, 0.2, 0.1),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        assert gmap_mamf(records, thresholds) == pytest.approx(50.0, abs=1e-12)

    def test_requires_two_systems(self):
        records = [record("A", "frs1", 1, 0.9, 0.9)]
        with pytest.raises(ValueError):
            gmap_mamf(records, [FrsThreshold("frs1", 0.5, 0.001)])


class TestOracleEquivalence:
    def test_gmap_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for trial in range(60):
            n_types = int(rng.integers(1, 4))
            records, taus, thresholds, ftar_map = random_table(rng, n_types=n_types)
            expected = oracle_gmap(records, taus, ftar_map)
            value = gmap(records, thresholds, FtarTable(ftar_map))
            assert value == pytest.approx(expected, abs=1e-12)


class TestMetricProperties:
    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            records, taus, thresholds, _ = random_table(rng)
            raised = [FrsThreshold(t.frs_id, t.tau + 0.05, t.fmr_target) for t in thresholds]
            assert gmap(records, raised) <= gmap(records, thresholds) + 1e-12

    def test_mamf_bounded_by_min_single_system(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            records, taus, thresholds, _ = random_table(rng, n_frs=int(rng.integers(2, 6)))
            threshold_map = {t.frs_id: t for t in thresholds}
            per_frs = [
                gmap_ma([r for r in records if r.frs_id == f], threshold_map[f])
                for f in sorted({r.frs_id for r in records})
            ]
            assert gmap_mamf(records, thresholds) <= min(per_frs) + 1e-12

    def test_quadrant_one_fraction_equals_gmap_ma(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            records, taus, thresholds, _ = random_table(rng, n_frs=1)
            th = thresholds[0]
            count_one = sum(1 for r in records if quadrant_classify(r, th) == "I")
            fraction = count_one / len(records)
            assert fraction == pytest.approx(gmap_ma(records, th) / 100.0, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(29)
        records, taus, thresholds, ftar_map = random_table(rng)
        ftar = FtarTable(ftar_map)
        base = gmap(records, thresholds, ftar)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert gmap(shuffled, thresholds, ftar) == base


class TestBuildReport:
    def make_inputs(self):
        records = [
            record("A", "frs1", 1, 0.6, 0.7),
            record("A", "frs1", 2, 0.6, 0.4),
            record("B", "frs1", 1, 0.8, 0.9),
            record("B", "frs1", 2, 0.7, 0.6),
            record("A", "frs2", 1, 0.9, 0.9),
            record("A", "frs2", 2, 0.1, 0.1),
            record("B", "frs2", 1, 0.9, 0.9),
            record("B", "frs2", 2, 0.9, 0.9),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        return records, thresholds

    def test_report_values(self):
        records, thresholds = self.make_inputs()
        report = build_report(records, thresholds)
        assert report.per_frs["frs1"] == pytest.approx(75.0, abs=1e-12)
        assert report.per_frs["frs2"] == pytest.approx(75.0, abs=1e-12)
        # per-cell minima: A1=1, A2=0, B1=1, B2=min(1,1)=1 -> 75
        assert report.cross_frs == pytest.approx(75.0, abs=1e-12)
        assert report.n_morphs == 2
        assert report.n_attempts == 2
        assert report.quadrant_counts["frs1"] == {"I": 3, "II": 0, "III": 0, "IV": 1}

    def test_report_ignores_ftar_for_per_frs(self):
        records, thresholds = self.make_inputs()
        ftar = FtarTable({(2, "frs1"): 1.0, (2, "frs2"): 1.0})
        report = build_report(records, thresholds, ftar)
        assert report.per_frs["frs1"] == pytest.approx(75.0, abs=1e-12)
        assert report.cross_frs < 75.0

    def test_report_requires_all_thresholds(self):
        records, thresholds = self.make_inputs()
        with pytest.raises(MissingThresholdError) as err:
            build_report(records, thresholds[:1])
        assert "frs2" in str(err.value)

    def test_single_system_report_cross_equals_per_frs(self):
        records, thresholds = self.make_inputs()
        single = [r for r in records if r.frs_id == "frs1"]
        report = build_report(single, thresholds[:1])
        assert report.cross_frs == report.per_frs["frs1"]


    def test_three_subject_table_matches_gmap(self):
        records = [
            ScoreRecord("A", "frs1", 1, (0.9, 0.8, 0.7)),
            ScoreRecord("A", "frs1", 2, (0.9, 0.4, 0.7)),
            ScoreRecord("A", "frs2", 1, (0.9, 0.8, 0.7)),
            ScoreRecord("A", "frs2", 2, (0.9, 0.8, 0.7)),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        report = build_report(records, thresholds)
        for threshold in thresholds:
            subset = [r for r in records if r.frs_id == threshold.frs_id]
            assert report.per_frs[threshold.frs_id] == gmap(subset, [threshold])
            assert report.quadrant_counts[threshold.frs_id] == dict.fromkeys(QUADRANTS, 0)
        assert report.cross_frs == gmap(records, thresholds)
        assert report.per_frs == {"frs1": 50.0, "frs2": 100.0}

    def test_single_three_subject_record(self):
        records = [ScoreRecord("A", "frs1", 1, (0.9, 0.8, 0.7))]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001)]
        report = build_report(records, thresholds)
        assert report.per_frs["frs1"] == gmap(records, thresholds) == 100.0
        assert report.cross_frs == 100.0

    def test_mixed_table_counts_two_subject_records_only(self):
        records, thresholds = self.make_inputs()
        extra = [
            ScoreRecord("C", "frs1", 1, (0.9, 0.9, 0.9)),
            ScoreRecord("C", "frs1", 2, (0.1, 0.9, 0.9)),
            ScoreRecord("C", "frs2", 1, (0.9, 0.9, 0.9)),
            ScoreRecord("C", "frs2", 2, (0.9, 0.9, 0.1)),
        ]
        report = build_report(records + extra, thresholds)
        assert report.quadrant_counts == build_report(records, thresholds).quadrant_counts
        assert report.quadrant_counts["frs1"] == {"I": 3, "II": 0, "III": 0, "IV": 1}
        # the three-subject morph still counts in the values: C1 hits both
        # systems, C2 neither
        assert report.per_frs["frs1"] == pytest.approx(100.0 * 4 / 6, abs=1e-12)
        assert report.cross_frs == gmap(records + extra, thresholds)

    def test_ragged_table_names_the_same_cell_as_gmap(self):
        records = [
            record("A", "frs1", 1, 0.6, 0.7),
            record("A", "frs1", 2, 0.6, 0.7),
            record("B", "frs1", 1, 0.6, 0.7),
            record("A", "frs2", 1, 0.6, 0.7),
        ]
        thresholds = [FrsThreshold("frs1", 0.5, 0.001), FrsThreshold("frs2", 0.5, 0.001)]
        with pytest.raises(RaggedDataError) as from_gmap:
            gmap(records, thresholds)
        with pytest.raises(RaggedDataError) as from_report:
            build_report(records, thresholds)
        assert "morph='A' attempt=2 frs='frs2'" in str(from_gmap.value)
        assert str(from_report.value) == str(from_gmap.value)

    def test_values_equal_gmap_exactly_on_random_tables(self):
        rng = np.random.default_rng(29)
        for n_types in (1, 2, 3):
            for _ in range(10):
                records, _, thresholds, ftar_map = random_table(rng, n_types=n_types)
                ftar = FtarTable(ftar_map)
                report = build_report(records, thresholds, ftar)
                assert report.cross_frs == gmap(records, thresholds, ftar)
                for threshold in thresholds:
                    subset = [r for r in records if r.frs_id == threshold.frs_id]
                    assert report.per_frs[threshold.frs_id] == gmap(subset, [threshold])
                for morph_type in sorted({r.morph_type for r in records}):
                    typed = [r for r in records if r.morph_type == morph_type]
                    typed_report = build_report(typed, thresholds, ftar)
                    assert typed_report.cross_frs == gmap(typed, thresholds, ftar)
                    for threshold in thresholds:
                        subset = [r for r in typed if r.frs_id == threshold.frs_id]
                        assert typed_report.per_frs[threshold.frs_id] == gmap_ma(subset, threshold)

    def test_report_does_not_call_gmap(self, monkeypatch):
        records, thresholds = self.make_inputs()
        expected = build_report(records, thresholds)

        def no_gmap(*args, **kwargs):
            raise AssertionError("gmap called")

        monkeypatch.setattr(metrics, "gmap", no_gmap)
        assert build_report(records, thresholds) == expected


class TestCsvInterfaces:
    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
            "A,default,frs1,1,0.6,0.7\n"
            "A,default,frs1,2,0.6,0.4\n"
        )
        records = read_scores_csv(path)
        assert len(records) == 2
        assert records[0].subject_scores == (0.6, 0.7)
        assert records[1].attempt_index == 2

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

    def test_scores_missing_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("morph_id,frs_id,attempt,score_s1,score_s2\nA,frs1,1,0.6,0.7\n")
        with pytest.raises(ValueError) as err:
            read_scores_csv(path)
        assert "morph_type" in str(err.value)

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

    def test_ftar_range_validation(self):
        with pytest.raises(ValueError):
            FtarTable({(1, "frs1"): 1.5})

    def test_report_csv_format(self, tmp_path):
        records, thresholds = TestBuildReport().make_inputs()
        report = build_report(records, thresholds)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frs_id,gmap_ma,quad1,quad2,quad3,quad4"
        assert lines[1].startswith("frs1,75.000000,3,0,0,1")
        assert lines[-1] == "MAMF,75.000000"

    def test_scatter_csv_format(self, tmp_path):
        records, thresholds = TestBuildReport().make_inputs()
        path = tmp_path / "scatter.csv"
        write_scatter_csv(records, thresholds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "morph_id,frs_id,attempt,score_s1,score_s2,quadrant"
        assert len(lines) == 1 + len(records)
        assert lines[1] == "A,frs1,1,0.6,0.7,I"
        assert lines[2] == "A,frs1,2,0.6,0.4,IV"

    def test_scatter_csv_rejects_bad_records_before_writing(self, tmp_path):
        records, thresholds = TestBuildReport().make_inputs()
        path = tmp_path / "scatter.csv"
        three = ScoreRecord("C", "frs1", 1, (0.9, 0.8, 0.7))
        with pytest.raises(UnsupportedArityError):
            write_scatter_csv(records + [three], thresholds, path)
        assert not path.exists()
        with pytest.raises(MissingThresholdError):
            write_scatter_csv(records + [record("C", "frs3", 1, 0.9, 0.8)], thresholds, path)
        assert not path.exists()

    def test_quadrant_counts_match_report(self):
        records, thresholds = TestBuildReport().make_inputs()
        three = ScoreRecord("C", "frs1", 1, (0.9, 0.8, 0.7))
        counts = quadrant_counts(records + [three], thresholds)
        assert counts == build_report(records, thresholds).quadrant_counts
        assert list(counts) == ["frs1", "frs2"]
        with pytest.raises(MissingThresholdError):
            quadrant_counts(records, thresholds[:1])

    def test_score_record_validation(self):
        with pytest.raises(ValueError):
            ScoreRecord("m", "A", 1, (0.5,))
        with pytest.raises(ValueError):
            ScoreRecord("m", "A", 0, (0.5, 0.6))
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="finite"):
                ScoreRecord("m", "A", 1, (float(bad), 0.6))
