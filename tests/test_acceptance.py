"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import csv
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial.transform import Rotation

from cloudmorph import (
    FrsThreshold,
    FtarTable,
    MorphConfig,
    PointCloud,
    ScoreTable,
    SimilarityTransform,
    apply_transform,
    gmap,
    gmap_ma,
    gmap_mamf,
    morph,
    quadrant_classify,
    register,
    save_ply,
    threshold_at_fmr,
)
from conftest import make_cloud, make_normalized_points, rms
from test_cli import run_cli
from test_metrics import oracle_gmap, random_table


@contextmanager
def criterion(number, name):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        print(f"[acceptance] criterion {number}: {name}: {status}")


def test_criterion_1_self_registration():
    with criterion(1, "self-registration identity recovery"):
        for seed in range(20):
            cloud = make_cloud(300, seed=1000 + seed)
            start = time.time()
            result = register(cloud, cloud)
            elapsed = time.time() - start
            assert elapsed <= 10.0, f"seed {seed}: took {elapsed:.1f}s"
            assert np.max(np.abs(result.displacement)) <= 0.02, f"seed {seed}"
            assert np.linalg.norm(result.transform.rotation - np.eye(3)) <= 0.02
            assert abs(result.transform.scale - 1.0) <= 0.02
            assert np.linalg.norm(result.transform.translation) <= 0.02


def test_criterion_2_rigid_recovery():
    with criterion(2, "rigid transform recovery"):
        converged = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            base = make_normalized_points(300, rng)
            angle = np.deg2rad(rng.uniform(5.0, 30.0))
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rot = Rotation.from_rotvec(angle * axis).as_matrix()
            trans = rng.uniform(-0.5, 0.5, size=3)
            noisy = base @ rot.T + trans + rng.normal(0.0, 0.005, size=base.shape)
            colors = rng.uniform(size=(300, 3))
            result = register(
                PointCloud(base, colors, "src"), PointCloud(noisy, colors, "tgt")
            )
            moved = (
                result.state.moved_source * result.target_record.scale
                + result.target_record.translation
            )
            assert rms(moved, noisy) <= 0.05, f"seed {seed}"
            converged += result.converged
        assert converged >= 18, f"only {converged}/20 converged"


def test_criterion_3_nonrigid_recovery():
    with criterion(3, "smooth deformation recovery"):
        for seed in range(3):
            rng = np.random.default_rng(3000 + seed)
            base = make_normalized_points(300, rng)
            center = base[int(rng.integers(len(base)))]
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            bump = np.exp(-np.sum((base - center) ** 2, axis=1) / (2.0 * 0.7**2))
            deformed = base + 0.1 * bump[:, None] * direction
            colors = rng.uniform(size=(300, 3))
            pre = rms(base, deformed)
            result = register(
                PointCloud(base, colors, "src"), PointCloud(deformed, colors, "tgt")
            )
            moved = (
                result.state.moved_source * result.target_record.scale
                + result.target_record.translation
            )
            post = rms(moved, deformed)
            assert post <= 0.03, f"seed {seed}: post {post:.4f}"
            assert post <= 0.5 * pre, f"seed {seed}: post {post:.4f} vs pre {pre:.4f}"


def test_criterion_4_transform_and_blend_arithmetic_oracles():
    with criterion(4, "transform and blend match direct arithmetic"):
        rng = np.random.default_rng(4000)
        for _ in range(1000):
            vertex = rng.uniform(-10.0, 10.0, size=3)
            disp = rng.uniform(-1.0, 1.0, size=3)
            color = rng.uniform(size=3)
            scale = float(rng.uniform(0.5, 2.0))
            rot = Rotation.from_rotvec(rng.uniform(-np.pi, np.pi, size=3)).as_matrix()
            trans = rng.uniform(-5.0, 5.0, size=3)
            cloud = PointCloud([vertex], [color], "v")
            out = apply_transform(
                cloud, SimilarityTransform(scale, rot, trans), disp[None, :]
            )
            # independent scalar arithmetic, component by component
            moved = [vertex[k] + disp[k] for k in range(3)]
            expected = [
                scale * sum(rot[i][k] * moved[k] for k in range(3)) + trans[i]
                for i in range(3)
            ]
            assert max(abs(out.vertices[0][i] - expected[i]) for i in range(3)) <= 1e-12

            alpha = float(rng.uniform(0.0, 1.0))
            other_vertex = rng.uniform(-10.0, 10.0, size=3)
            other_color = rng.uniform(size=3)
            blended = morph(
                cloud, other_vertex[None, :], other_color[None, :], MorphConfig(alpha)
            )
            expected_vertex = [
                alpha * vertex[i] + (1.0 - alpha) * other_vertex[i] for i in range(3)
            ]
            expected_color = [
                alpha * color[i] + (1.0 - alpha) * other_color[i] for i in range(3)
            ]
            assert max(abs(blended.vertices[0][i] - expected_vertex[i]) for i in range(3)) <= 1e-12
            assert max(abs(blended.colors[0][i] - expected_color[i]) for i in range(3)) <= 1e-12


def test_criterion_5_morph_endpoints():
    with criterion(5, "blend endpoints and midpoint are exact"):
        rng = np.random.default_rng(5000)
        pst1 = make_cloud(200, seed=5001, cloud_id="p1")
        coords = rng.normal(size=(200, 3))
        colors = rng.uniform(size=(200, 3))
        at_one = morph(pst1, coords, colors, MorphConfig(1.0))
        npt.assert_array_equal(at_one.vertices, pst1.vertices)
        npt.assert_array_equal(at_one.colors, pst1.colors)
        at_zero = morph(pst1, coords, colors, MorphConfig(0.0))
        npt.assert_array_equal(at_zero.vertices, coords)
        npt.assert_array_equal(at_zero.colors, colors)
        midpoint = morph(pst1, coords, colors, MorphConfig(0.5))
        npt.assert_array_equal(midpoint.vertices, 0.5 * pst1.vertices + 0.5 * coords)
        npt.assert_array_equal(
            midpoint.colors, np.clip(0.5 * pst1.colors + 0.5 * colors, 0.0, 1.0)
        )


def test_criterion_6_gmap_oracle_equivalence():
    with criterion(6, "attack-potential metrics match brute-force oracle"):
        rng = np.random.default_rng(6000)
        for _ in range(200):
            n_types = int(rng.integers(1, 4))
            records, taus, thresholds, ftar_map = random_table(rng, n_types=n_types)
            expected = oracle_gmap(records, taus, ftar_map)
            table = ScoreTable.from_rows(records)
            assert gmap(table, thresholds, FtarTable(ftar_map)) == pytest.approx(
                expected, abs=1e-12
            )
            single = [r for r in records if r.frs_id == thresholds[0].frs_id
                      and r.morph_type == "type0"]
            expected_single = oracle_gmap(
                single, {thresholds[0].frs_id: taus[thresholds[0].frs_id]}, {}
            )
            assert gmap_ma(ScoreTable.from_rows(single), thresholds[0]) == pytest.approx(
                expected_single, abs=1e-12
            )
        # hand-counted fixtures
        records = [
            ("A", 1, 0.6, 0.7), ("A", 2, 0.6, 0.4),
            ("B", 1, 0.8, 0.9), ("B", 2, 0.7, 0.6),
        ]
        table = ScoreTable.from_rows(
            (m, "default", "frs1", i, s1, s2) for m, i, s1, s2 in records
        )
        threshold = FrsThreshold("frs1", 0.5, 0.001)
        assert gmap(table, [threshold]) == pytest.approx(75.0, abs=1e-12)
        assert gmap(
            table, [threshold], FtarTable({(2, "frs1"): 0.5})
        ) == pytest.approx(62.5, abs=1e-12)


def test_criterion_7_metric_structure():
    with criterion(7, "metric structure properties"):
        rng = np.random.default_rng(7000)
        for _ in range(50):
            n_frs = int(rng.integers(2, 6))
            records, taus, thresholds, _ = random_table(rng, n_frs=n_frs)
            threshold_map = {t.frs_id: t for t in thresholds}
            per_frs = {}
            for frs_id in sorted({r.frs_id for r in records}):
                subset = [r for r in records if r.frs_id == frs_id]
                value = gmap_ma(ScoreTable.from_rows(subset), threshold_map[frs_id])
                per_frs[frs_id] = value
                # quadrant-I fraction equals the single-system rate
                count_one = sum(
                    1 for r in subset
                    if quadrant_classify(r.score_s1, r.score_s2, threshold_map[frs_id]) == "I"
                )
                assert count_one / len(subset) == pytest.approx(value / 100.0, abs=1e-12)
            # the cross-system value never exceeds any single-system value
            table = ScoreTable.from_rows(records)
            assert gmap_mamf(table, thresholds) <= min(per_frs.values()) + 1e-12
            # raising any threshold never raises the metric
            raised = [
                FrsThreshold(t.frs_id, t.tau + float(rng.uniform(0.01, 0.2)), t.fmr_target)
                for t in thresholds
            ]
            assert gmap(table, raised) <= gmap(table, thresholds) + 1e-12


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "pipeline rerun is byte-identical"):
        files = {}
        for name, seed in (("a", 80), ("b", 81), ("c", 82), ("d", 83)):
            path = tmp_path / f"{name}.ply"
            save_ply(make_cloud(70, seed=seed, cloud_id=name), path)
            files[name] = path
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "subject_a,subject_b,morph_id,alpha\n"
            f"{files['a']},{files['b']},m1\n"
            f"{files['c']},{files['d']},m2,0.4\n"
        )
        outputs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            result = run_cli(
                "pipeline", pairs, "--out", out, "--downsample", "50", "--seed", "3"
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out)
        for name in ("m1.ply", "m2.ply", "manifest.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


def test_criterion_9_threshold_oracle():
    with criterion(9, "threshold matches exhaustive search"):
        rng = np.random.default_rng(9000)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            decimals = int(rng.integers(0, 4))
            scores = np.round(rng.normal(size=n), decimals).tolist()
            fmr = float(rng.uniform(0.002, 0.5))
            expected_tau, expected_saturated = None, None
            ordered = sorted(scores)
            for tau in sorted(set(scores)):
                if sum(1 for s in ordered if s >= tau) / n <= fmr:
                    expected_tau, expected_saturated = tau, False
                    break
            if expected_tau is None:
                expected_tau, expected_saturated = max(scores), True
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                th = threshold_at_fmr(scores, fmr)
            assert th.tau == expected_tau
            assert th.saturated == expected_saturated
