import argparse
import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cloudmorph import (
    PointCloud, RegistrationParams, cli, downsample, load_ply, metrics, morph_registration,
    register, save_ply,
)
from conftest import make_cloud

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    return subprocess.run(
        [sys.executable, "-m", "cloudmorph", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


@pytest.fixture
def cloud_files(tmp_path):
    paths = {}
    for name, seed in (("a", 50), ("b", 51), ("c", 52), ("d", 53)):
        cloud = make_cloud(70, seed=seed, cloud_id=name)
        path = tmp_path / f"{name}.ply"
        save_ply(cloud, path)
        paths[name] = path
    return paths


def write_eval_fixture(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
        "A,default,frs1,1,0.6,0.7\n"
        "A,default,frs1,2,0.6,0.4\n"
        "B,default,frs1,1,0.8,0.9\n"
        "B,default,frs1,2,0.7,0.6\n"
    )
    nonmated = tmp_path / "nonmated.csv"
    rows = ["frs_id,score"] + [f"frs1,{v / 1000.0}" for v in range(1, 501)]
    nonmated.write_text("\n".join(rows) + "\n")
    return scores, nonmated


class TestRegisterCommand:
    def test_self_registration_outputs(self, cloud_files, tmp_path):
        out = tmp_path / "reg"
        result = run_cli(
            "register", cloud_files["a"], cloud_files["a"],
            "--out", out, "--downsample", "60", "--seed", "1",
        )
        assert result.returncode == 0, result.stderr
        with (out / "transform.csv").open() as handle:
            row = list(csv.DictReader(handle))[0]
        scale = float(row["s"])
        rot = np.array([[float(row[f"r{i}{j}"]) for j in (1, 2, 3)] for i in (1, 2, 3)])
        trans = np.array([float(row[f"t{i}"]) for i in (1, 2, 3)])
        assert abs(scale - 1.0) <= 0.02
        assert np.linalg.norm(rot - np.eye(3)) <= 0.02
        assert np.linalg.norm(trans) <= 0.02
        assert (out / "displacements.csv").exists()
        aligned = load_ply(out / "aligned_source.ply")
        assert len(aligned) == 60

    def test_unreadable_path_exits_1_with_path(self, tmp_path):
        missing = tmp_path / "missing.ply"
        result = run_cli("register", missing, missing, "--out", tmp_path / "o")
        assert result.returncode == 1
        assert "missing.ply" in result.stderr

    def test_forced_nonconvergence_exits_2(self, cloud_files, tmp_path):
        out = tmp_path / "nc"
        result = run_cli(
            "register", cloud_files["a"], cloud_files["b"],
            "--out", out, "--max-iters", "1", "--tol", "0", "--downsample", "40",
        )
        assert result.returncode == 2, result.stderr
        assert (out / "transform.csv").exists()
        assert (out / "aligned_source.ply").exists()


class TestMorphCommand:
    def test_forced_nonconvergence_exits_2(self, cloud_files, tmp_path):
        out = tmp_path / "m2"
        result = run_cli(
            "morph", cloud_files["a"], cloud_files["b"],
            "--out", out, "--max-iters", "1", "--tol", "0", "--downsample", "40",
        )
        assert result.returncode == 2, result.stderr
        assert list(out.glob("*.ply"))  # morph still written

    def test_single_pair_writes_morph(self, cloud_files, tmp_path):
        out = tmp_path / "m"
        result = run_cli(
            "morph", cloud_files["a"], cloud_files["b"],
            "--out", out, "--downsample", "50", "--alpha", "0.5",
        )
        assert result.returncode == 0, result.stderr
        produced = list(out.glob("*.ply"))
        assert len(produced) == 1
        assert produced[0].name == "morph_a_b_0.5.ply"
        cloud = load_ply(produced[0])
        assert len(cloud) == 50

    def test_output_is_the_library_call(self, cloud_files, tmp_path):
        out = tmp_path / "m"
        code = cli.main(["morph", str(cloud_files["a"]), str(cloud_files["b"]),
                         "--out", str(out), "--downsample", "50", "--seed", "4",
                         "--alpha", "0.3", "--max-iters", "40"])
        assert code in (0, 2)
        source, target = (downsample(load_ply(cloud_files[k]), 50, 4) for k in "ab")
        result = register(source, target, RegistrationParams(max_iters=40))
        expected = tmp_path / "expected.ply"
        save_ply(morph_registration(result, 0.3), expected)
        (produced,) = out.glob("*.ply")
        assert produced.name == "morph_a_b_0.3.ply"
        assert produced.read_bytes() == expected.read_bytes()


class TestPipelineCommand:
    def write_pairs(self, tmp_path, cloud_files, rows=None):
        pairs = tmp_path / "pairs.csv"
        if rows is None:
            rows = [
                f"{cloud_files['a']},{cloud_files['b']},morph_ab",
                f"{cloud_files['c']},{cloud_files['d']},morph_cd,0.4",
            ]
        pairs.write_text("subject_a,subject_b,morph_id,alpha\n" + "\n".join(rows) + "\n")
        return pairs

    def test_two_pairs(self, cloud_files, tmp_path):
        pairs = self.write_pairs(tmp_path, cloud_files)
        out = tmp_path / "batch"
        result = run_cli("pipeline", pairs, "--out", out, "--downsample", "50")
        assert result.returncode == 0, result.stderr
        assert (out / "morph_ab.ply").exists()
        assert (out / "morph_cd.ply").exists()
        with (out / "manifest.csv").open() as handle:
            manifest = list(csv.DictReader(handle))
        assert len(manifest) == 2
        assert all(row["status"] in ("converged", "not_converged") for row in manifest)
        assert all(int(row["iterations"]) >= 1 for row in manifest)

    # the same file spelled the same way, or another way
    @pytest.mark.parametrize("spelling", ["{a}", "{a.parent}/./{a.name}"])
    def test_identical_paths_flagged_invalid(self, spelling, cloud_files, tmp_path):
        rows = [
            f"{cloud_files['a']},{spelling.format(a=cloud_files['a'])},morph_self",
            f"{cloud_files['c']},{cloud_files['d']},morph_cd",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        out = tmp_path / "batch"
        result = run_cli("pipeline", pairs, "--out", out, "--downsample", "50")
        assert result.returncode == 0, result.stderr
        with (out / "manifest.csv").open() as handle:
            manifest = {row["morph_id"]: row for row in csv.DictReader(handle)}
        assert manifest["morph_self"]["status"] == "invalid"
        assert manifest["morph_cd"]["status"] == "converged"
        assert not (out / "morph_self.ply").exists()
        assert (out / "morph_cd.ply").exists()

    # a missing file, and a symlink to itself that cannot be resolved
    @pytest.mark.parametrize("name", ["ghost.ply", "loop.ply"])
    def test_bad_pair_recorded_others_proceed(self, name, cloud_files, tmp_path):
        if name == "loop.ply":
            (tmp_path / name).symlink_to(tmp_path / name)
        rows = [
            f"{tmp_path / name},{cloud_files['b']},morph_bad",
            f"{cloud_files['c']},{cloud_files['d']},morph_cd",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        out = tmp_path / "batch"
        result = run_cli("pipeline", pairs, "--out", out, "--downsample", "50")
        assert result.returncode == 0, result.stderr
        with (out / "manifest.csv").open() as handle:
            manifest = {row["morph_id"]: row for row in csv.DictReader(handle)}
        assert manifest["morph_bad"]["status"] == "error"
        assert name in manifest["morph_bad"]["detail"]
        assert manifest["morph_cd"]["status"] == "converged"

    def test_bare_property_line_recorded_others_proceed(self, cloud_files, tmp_path):
        bad = tmp_path / "bare.ply"
        bad.write_bytes(cloud_files["a"].read_bytes().replace(b"property float y", b"property", 1))
        rows = [
            f"{bad},{cloud_files['b']},morph_bad",
            f"{cloud_files['c']},{cloud_files['d']},morph_cd",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        out = tmp_path / "batch"
        result = run_cli("pipeline", pairs, "--out", out, "--downsample", "50")
        assert result.returncode == 0, result.stderr
        with (out / "manifest.csv").open() as handle:
            manifest = {row["morph_id"]: row for row in csv.DictReader(handle)}
        assert manifest["morph_bad"]["status"] == "error"
        assert manifest["morph_bad"]["detail"] == f"{bad}: bad property line 'property'"
        assert manifest["morph_cd"]["status"] == "converged"

    def test_subject_spelled_two_ways_is_read_once(self, cloud_files, tmp_path, monkeypatch):
        a = cloud_files["a"]
        rows = [
            f"{a},{cloud_files['b']},morph_ab",
            f"{a.parent}/./{a.name},{cloud_files['c']},morph_ac",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        reads = []

        def counting_load(path):
            reads.append(Path(path).name)
            return load_ply(path)

        monkeypatch.setattr(cli, "load_ply", counting_load)
        code = cli.main(["pipeline", str(pairs), "--out", str(tmp_path / "batch"),
                         "--downsample", "50", "--max-iters", "2"])
        assert code == 0
        assert sorted(reads) == ["a.ply", "b.ply", "c.ply"]
        with (tmp_path / "batch" / "manifest.csv").open() as handle:
            spelled = [row["subject_a"] for row in csv.DictReader(handle)]
        assert spelled == [str(a), f"{a.parent}/./{a.name}"]

    # a morph_id that names its own subject, or another pair's
    @pytest.mark.parametrize("morph_id, clobbered", [("b", "b"), ("c", "c")])
    def test_morph_over_a_subject_is_file_level_error(
        self, morph_id, clobbered, cloud_files, tmp_path, capsys
    ):
        rows = [
            f"{cloud_files['a']},{cloud_files['b']},{morph_id}",
            f"{cloud_files['c']},{cloud_files['d']},morph_cd",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        before = cloud_files[clobbered].read_bytes()
        code = cli.main(["pipeline", str(pairs), "--out", str(tmp_path / "sub" / ".."),
                         "--downsample", "50"])
        assert code == 1
        assert repr(morph_id) in capsys.readouterr().err
        # the check runs before the first pair, so no subject is overwritten
        assert cloud_files[clobbered].read_bytes() == before
        assert not (tmp_path / "morph_cd.ply").exists()

    def test_duplicate_morph_id_is_file_level_error(self, cloud_files, tmp_path):
        rows = [
            f"{cloud_files['a']},{cloud_files['b']},same_id",
            f"{cloud_files['c']},{cloud_files['d']},same_id",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        result = run_cli("pipeline", pairs, "--out", tmp_path / "x")
        assert result.returncode == 1
        assert "same_id" in result.stderr

    @pytest.mark.parametrize("morph_id", ["../escaped", "sub/m", "{tmp}/abs", ".", ".."])
    def test_morph_id_must_be_a_plain_file_name(self, morph_id, cloud_files, tmp_path, capsys):
        morph_id = morph_id.format(tmp=tmp_path)
        rows = [
            f"{cloud_files['a']},{cloud_files['b']},morph_ab",
            f"{cloud_files['c']},{cloud_files['d']},{morph_id}",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        out = tmp_path / "out" / "inner"
        code = cli.main(["pipeline", str(pairs), "--out", str(out), "--downsample", "50"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{pairs}: row 3: morph_id {morph_id!r} is not a plain file name" in err
        # the check runs before the first pair, so nothing is written anywhere
        written = sorted(p.name for p in tmp_path.rglob("*.ply"))
        assert written == ["a.ply", "b.ply", "c.ply", "d.ply"]
        assert not (out / "manifest.csv").exists()

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_row_with_empty_field_names_row(self, empty, cloud_files, tmp_path, capsys):
        fields = [str(cloud_files["a"]), str(cloud_files["b"]), "morph_ab"]
        fields[empty] = ""
        pairs = self.write_pairs(tmp_path, cloud_files, [",".join(fields)])
        out = tmp_path / "x"
        assert cli.main(["pipeline", str(pairs), "--out", str(out)]) == 1
        assert f"{pairs}: row 2: incomplete pairing row" in capsys.readouterr().err
        assert not (out / "manifest.csv").exists()

    # a double-precision subject whose RMS radius overflows float64, as the
    # source and as the target
    @pytest.mark.parametrize("huge_first", [True, False])
    def test_overflowing_subject_recorded_others_proceed(self, huge_first, cloud_files,
                                                         tmp_path):
        huge = tmp_path / "huge.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 300\n"
                  "property double x\nproperty double y\nproperty double z\n"
                  "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n")
        body = np.zeros(300, dtype=[("xyz", "<f8", 3), ("rgb", "u1", 3)])
        body["xyz"] = np.random.default_rng(3).normal(size=(300, 3)) * 1e200
        huge.write_bytes(header.encode("ascii") + body.tobytes())
        pair = [str(huge), str(cloud_files["b"])]
        rows = [",".join([*(pair if huge_first else pair[::-1]), "morph_huge"]),
                f"{cloud_files['c']},{cloud_files['d']},morph_cd"]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        out = tmp_path / "batch"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["pipeline", str(pairs), "--out", str(out), "--downsample", "50"])
        assert code == 0
        with (out / "manifest.csv").open() as handle:
            manifest = {row["morph_id"]: row for row in csv.DictReader(handle)}
        assert manifest["morph_huge"]["status"] == "error"
        assert manifest["morph_huge"]["detail"].startswith("cloud 'huge' is too large to normalize")
        assert manifest["morph_cd"]["status"] == "converged"

    # every vertex at one point; the centroid does not round back to it
    @pytest.mark.parametrize("flat_first", [True, False], ids=["source", "target"])
    def test_coincident_subject_recorded_others_proceed(self, flat_first, cloud_files,
                                                         tmp_path):
        flat = tmp_path / "flat.ply"
        save_ply(PointCloud(np.tile([10.1, 20.2, 30.3], (50, 1)), np.zeros((50, 3))), flat)
        pair = [str(flat), str(cloud_files["b"])]
        rows = [",".join([*(pair if flat_first else pair[::-1]), "morph_flat"]),
                f"{cloud_files['c']},{cloud_files['d']},morph_cd"]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        out = tmp_path / "batch"
        assert cli.main(["pipeline", str(pairs), "--out", str(out), "--downsample", "50"]) == 0
        with (out / "manifest.csv").open() as handle:
            manifest = {row["morph_id"]: row for row in csv.DictReader(handle)}
        assert manifest["morph_flat"]["status"] == "error"
        assert manifest["morph_flat"]["detail"] == "cloud 'flat' has zero spatial extent"
        assert not (out / "morph_flat.ply").exists()
        assert manifest["morph_cd"]["status"] == "converged"

    def test_subject_that_fails_to_load_is_read_once(self, cloud_files, tmp_path,
                                                     monkeypatch):
        bad = tmp_path / "wide.ply"
        bad.write_bytes(cloud_files["a"].read_bytes().replace(
            b"property uchar red", b"property ushort red", 1))
        b, c, d = (str(cloud_files[k]) for k in "bcd")
        rows = [f"{bad},{b},m0", f"{c},{bad},m1", f"{c},{d},m2", f"{bad},{d},m3"]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        loads = []

        def counting_load_ply(path):
            loads.append(Path(path).name)
            return load_ply(path)

        monkeypatch.setattr(cli, "load_ply", counting_load_ply)
        out = tmp_path / "batch"
        code = cli.main(["pipeline", str(pairs), "--out", str(out), "--downsample", "50",
                         "--max-iters", "2"])
        assert code == 0
        assert loads.count("wide.ply") == 1
        with (out / "manifest.csv").open() as handle:
            manifest = list(csv.DictReader(handle))
        errors = [row for row in manifest if row["status"] == "error"]
        assert [row["morph_id"] for row in errors] == ["m0", "m1", "m3"]
        assert errors[0]["detail"].startswith(str(bad))
        assert len({row["detail"] for row in errors}) == 1
        assert manifest[2]["status"] != "error"

    def test_missing_column_names_it(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("subject_a,subject_b,alpha\na.ply,b.ply,0.5\n")
        assert cli.main(["pipeline", str(pairs), "--out", str(tmp_path / "x")]) == 1
        assert "morph_id" in capsys.readouterr().err

    def test_bad_alpha_names_row(self, cloud_files, tmp_path, capsys):
        rows = [
            f"{cloud_files['a']},{cloud_files['b']},morph_ab",
            f"{cloud_files['c']},{cloud_files['d']},morph_cd,half",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        assert cli.main(["pipeline", str(pairs), "--out", str(tmp_path / "x")]) == 1
        assert "row 3: bad alpha 'half'" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_names_row(self, alpha, cloud_files, tmp_path,
                                                   monkeypatch, capsys):
        def no_register(*args, **kwargs):
            raise AssertionError("register called")

        monkeypatch.setattr(cli, "register", no_register)
        rows = [
            f"{cloud_files['a']},{cloud_files['b']},morph_ab",
            f"{cloud_files['c']},{cloud_files['d']},morph_cd,{alpha}",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        out = tmp_path / "x"
        assert cli.main(["pipeline", str(pairs), "--out", str(out)]) == 1
        assert f"{pairs}: row 3: alpha '{alpha}' is not in [0, 1]" in capsys.readouterr().err
        assert not (out / "manifest.csv").exists()

    def test_row_with_extra_field_names_row(self, cloud_files, tmp_path, capsys):
        rows = [
            f"{cloud_files['a']},{cloud_files['b']},morph_ab",
            f"{cloud_files['c']},{cloud_files['d']},morph_cd,0.4,extra",
        ]
        pairs = self.write_pairs(tmp_path, cloud_files, rows)
        assert cli.main(["pipeline", str(pairs), "--out", str(tmp_path / "x")]) == 1
        assert "row 3: 5 fields, the header has 4" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, cloud_files, tmp_path):
        pairs = self.write_pairs(tmp_path, cloud_files)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            result = run_cli(
                "pipeline", pairs, "--out", out, "--downsample", "50", "--seed", "9"
            )
            assert result.returncode == 0, result.stderr
        for name in ("morph_ab.ply", "morph_cd.ply", "manifest.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_morphs_are_the_library_call(self, cloud_files, tmp_path):
        # row 0 takes --alpha, row 1 its own alpha; row i subsamples with --seed + i
        pairs = self.write_pairs(tmp_path, cloud_files)
        out = tmp_path / "batch"
        code = cli.main(["pipeline", str(pairs), "--out", str(out), "--downsample", "50",
                         "--seed", "5", "--alpha", "0.7", "--max-iters", "40"])
        assert code == 0
        params = RegistrationParams(max_iters=40)
        for index, (a, b, morph_id, alpha) in enumerate(
            [("a", "b", "morph_ab", 0.7), ("c", "d", "morph_cd", 0.4)]
        ):
            source, target = (downsample(load_ply(cloud_files[k]), 50, 5 + index)
                              for k in (a, b))
            expected = tmp_path / f"expected_{morph_id}.ply"
            save_ply(morph_registration(register(source, target, params), alpha), expected)
            assert (out / f"{morph_id}.ply").read_bytes() == expected.read_bytes()

    def test_each_subject_loaded_once(self, cloud_files, tmp_path, monkeypatch):
        a, b, c, d = (str(cloud_files[k]) for k in "abcd")
        pairs = [(a, b), (a, c), (b, c), (a, a), (c, d)]
        rows = [f"{s},{t},m{i}" for i, (s, t) in enumerate(pairs)]
        pairs_csv = self.write_pairs(tmp_path, cloud_files, rows)
        loads = []

        def counting_load_ply(path):
            loads.append(str(path))
            return load_ply(path)

        monkeypatch.setattr(cli, "load_ply", counting_load_ply)
        out = tmp_path / "batch"
        code = cli.main(
            ["pipeline", str(pairs_csv), "--out", str(out), "--downsample", "50", "--seed", "9"]
        )
        assert code == 0
        assert sorted(loads) == sorted([a, b, c, d])
        # each morph equals a single-pair run with the pipeline's per-pair seed
        for index, (source, target) in enumerate(pairs):
            if source == target:
                continue
            single = tmp_path / f"single{index}"
            cli.main(["morph", source, target, "--out", str(single), "--downsample", "50",
                      "--seed", str(9 + index)])
            (produced,) = single.glob("*.ply")
            assert produced.read_bytes() == (out / f"m{index}.ply").read_bytes()


class TestEvalCommand:
    def test_hand_counted_value_on_stdout(self, tmp_path):
        scores, nonmated = write_eval_fixture(tmp_path)
        out = tmp_path / "eval"
        result = run_cli("eval", scores, nonmated, "--fmr", "0.002", "--out", out)
        assert result.returncode == 0, result.stderr
        # tau = 0.5 (only the top score of 0.001..0.5 is >= 0.5), success 3/4
        assert "75.0" in result.stdout
        assert (out / "report.csv").exists()
        assert (out / "quadrants.csv").exists()
        report_lines = (out / "report.csv").read_text().strip().splitlines()
        assert report_lines[0] == "frs_id,gmap_ma,quad1,quad2,quad3,quad4"
        assert report_lines[-1].startswith("MAMF,")

    def test_missing_frs_in_nonmated_names_it(self, tmp_path):
        scores, _ = write_eval_fixture(tmp_path)
        nonmated = tmp_path / "other.csv"
        nonmated.write_text("frs_id,score\nother,0.5\n")
        result = run_cli("eval", scores, nonmated, "--out", tmp_path / "e")
        assert result.returncode == 1
        assert "frs1" in result.stderr

    def test_bad_score_row_names_row(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "morph_id,morph_type,frs_id,attempt,score_s1,score_s2\n"
            "A,default,frs1,1,0.6,0.7\n"
            "A,default,frs1,two,0.6,0.7\n"
        )
        nonmated = tmp_path / "nm.csv"
        nonmated.write_text("frs_id,score\nfrs1,0.5\n")
        result = run_cli("eval", scores, nonmated, "--out", tmp_path / "e")
        assert result.returncode == 1
        assert "row 3" in result.stderr

    def test_bad_nonmated_row_names_file_and_row(self, tmp_path, capsys):
        scores, _ = write_eval_fixture(tmp_path)
        nonmated = tmp_path / "nm.csv"
        nonmated.write_text("frs_id,score\nfrs1,0.5\nfrs1,high\n")
        assert cli.main(["eval", str(scores), str(nonmated), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert str(nonmated) in err
        assert "row 3" in err

    def test_non_finite_nonmated_row_names_file_and_row(self, tmp_path, capsys):
        scores, _ = write_eval_fixture(tmp_path)
        nonmated = tmp_path / "nm.csv"
        nonmated.write_text("frs_id,score\nfrs1,0.5\nfrs1,nan\n")
        assert cli.main(["eval", str(scores), str(nonmated), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert f"{nonmated}: row 3: " in err
        assert "finite" in err

    def test_out_of_range_ftar_row_names_file_and_row(self, tmp_path, capsys):
        scores, nonmated = write_eval_fixture(tmp_path)
        ftar = tmp_path / "ftar.csv"
        ftar.write_text("frs_id,attempt,ftar\nfrs1,1,1.5\n")
        argv = ["eval", str(scores), str(nonmated), "--fmr", "0.002", "--ftar", str(ftar)]
        assert cli.main([*argv, "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert f"{ftar}: row 2: " in err
        assert "[0, 1]" in err

    def test_omitted_ftar_equals_zero_ftar(self, tmp_path):
        scores, nonmated = write_eval_fixture(tmp_path)
        ftar = tmp_path / "ftar.csv"
        ftar.write_text("frs_id,attempt,ftar\nfrs1,1,0\nfrs1,2,0\n")
        out1 = tmp_path / "without"
        out2 = tmp_path / "with"
        r1 = run_cli("eval", scores, nonmated, "--fmr", "0.002", "--out", out1)
        r2 = run_cli("eval", scores, nonmated, "--fmr", "0.002", "--out", out2, "--ftar", ftar)
        assert r1.returncode == 0 and r2.returncode == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert r1.stdout == r2.stdout


class TestQuadrantsCommand:
    def test_scatter_export(self, tmp_path):
        scores, nonmated = write_eval_fixture(tmp_path)
        out = tmp_path / "q"
        result = run_cli("quadrants", scores, nonmated, "--fmr", "0.002", "--out", out)
        assert result.returncode == 0, result.stderr
        lines = (out / "quadrants.csv").read_text().strip().splitlines()
        assert lines[0] == "morph_id,frs_id,attempt,score_s1,score_s2,quadrant"
        assert len(lines) == 5
        assert "I=" in result.stdout

    def test_counts_without_computing_gmap(self, tmp_path, monkeypatch, capsys):
        # printing quadrant counts needs no attack-potential value
        scores, nonmated = write_eval_fixture(tmp_path)
        argv = ["quadrants", str(scores), str(nonmated), "--fmr", "0.002"]
        assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr().out

        def no_gmap(*args, **kwargs):
            raise AssertionError("gmap called")

        monkeypatch.setattr(metrics, "gmap", no_gmap)
        assert cli.main(argv + ["--out", str(tmp_path / "patched")]) == 0
        assert capsys.readouterr().out == plain == "frs1 I=3 II=0 III=0 IV=1\n"
        assert (tmp_path / "patched" / "quadrants.csv").read_bytes() == (
            tmp_path / "plain" / "quadrants.csv"
        ).read_bytes()


class TestConfigAndHelp:
    @pytest.mark.parametrize(
        "command,expected_flags",
        [
            ("register", ["--beta", "--lambda", "--omega", "--gamma", "--kappa",
                          "--tol", "--max-iters", "--sigma-correction",
                          "--downsample", "--seed", "--out", "--config"]),
            ("morph", ["--alpha", "--beta", "--lambda"]),
            ("pipeline", ["--alpha", "--beta", "--seed"]),
            ("eval", ["--fmr", "--ftar", "--out"]),
            ("quadrants", ["--fmr", "--out"]),
        ],
    )
    def test_help_lists_flags_with_defaults(self, command, expected_flags):
        result = run_cli(command, "--help")
        assert result.returncode == 0
        for flag in expected_flags:
            assert flag in result.stdout
        assert "default" in result.stdout

    def test_register_help_shows_default_values(self):
        result = run_cli("register", "--help")
        assert "0.3" in result.stdout     # beta
        assert "50" in result.stdout      # lambda
        assert "0.05" in result.stdout    # omega
        assert "300" in result.stdout     # max iters

    def test_config_file_sets_defaults_and_flags_override(self, cloud_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# pipeline settings\n"
            "max_iters=1\n"
            "tol=0\n"
            "downsample=40\n"
        )
        out = tmp_path / "cfg_out"
        # config forces non-convergence -> exit 2
        result = run_cli(
            "register", cloud_files["a"], cloud_files["b"],
            "--config", config, "--out", out,
        )
        assert result.returncode == 2, result.stderr
        # explicit flag overrides the config and allows convergence
        result = run_cli(
            "register", cloud_files["a"], cloud_files["b"],
            "--config", config, "--out", out, "--max-iters", "200", "--tol", "1e-5",
        )
        assert result.returncode == 0, result.stderr

    def test_unknown_config_key_fails(self, cloud_files, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("betta=0.5\n")
        result = run_cli(
            "register", cloud_files["a"], cloud_files["b"],
            "--config", config, "--out", tmp_path / "o",
        )
        assert result.returncode == 1
        assert "betta" in result.stderr


class TestConfigErrorExit:
    """A config error leaves through main's one input-error exit, before
    the output directory is made."""

    ARGV = {"register": ["register", "s.ply", "t.ply"],
            "eval": ["eval", "scores.csv", "nonmated.csv"]}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_missing_config_file(self, command, tmp_path, capsys):
        config = tmp_path / "absent.cfg"
        out = tmp_path / "o"
        code = cli.main(self.ARGV[command] + ["--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(config) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_unknown_config_key(self, command, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("fmrr=0.01\n")
        out = tmp_path / "o"
        code = cli.main(self.ARGV[command] + ["--config", str(config), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: line 1: unknown config key 'fmrr'\n"
        assert not out.exists()


def test_shared_flags_agree():
    """A long flag that several subcommands define parses alike on each, so
    a config key means the same whichever subcommand's action reads it."""
    shared = {}
    for subparser in cli.build_parser()[1].values():
        for action in subparser._actions:
            for flag in action.option_strings:
                if flag.startswith("--"):
                    shared.setdefault(flag, []).append(action)
    shared = {flag: actions for flag, actions in shared.items() if len(actions) > 1}
    registration = {"--beta", "--lambda", "--omega", "--gamma", "--kappa", "--tol",
                    "--max-iters", "--sigma-correction", "--downsample", "--seed"}
    assert set(shared) == {"--help", "--alpha", "--fmr", "--out", "--config"} | registration
    for flag, actions in shared.items():
        first = actions[0]
        for action in actions[1:]:
            assert (action.type, action.default, type(action)) == \
                (first.type, first.default, type(first)), flag


def parsed_args(argv, monkeypatch):
    """The namespace main() hands to the command, without running it."""
    seen = []
    command = argv[0]
    monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(args) or 0)
    assert cli.main(argv) == 0
    (args,) = seen
    return {k: v for k, v in vars(args).items() if k != "config"}


class TestConfigKeys:
    # key -> (command argv, flag argv, config value); the flag's value is the
    # same text as the config value
    CASES = {
        "beta": (["register", "s.ply", "t.ply"], ["--beta", "0.25"], "0.25"),
        "lambda": (["register", "s.ply", "t.ply"], ["--lambda", "7.5"], "7.5"),
        "omega": (["register", "s.ply", "t.ply"], ["--omega", "0.125"], "0.125"),
        "gamma": (["morph", "s.ply", "t.ply"], ["--gamma", "2"], "2"),
        "kappa": (["morph", "s.ply", "t.ply"], ["--kappa", "3.5"], "3.5"),
        "tol": (["pipeline", "p.csv"], ["--tol", "1e-3"], "1e-3"),
        "max_iters": (["register", "s.ply", "t.ply"], ["--max-iters", "17"], "17"),
        "downsample": (["pipeline", "p.csv"], ["--downsample", "123"], "123"),
        "seed": (["morph", "s.ply", "t.ply"], ["--seed", "42"], "42"),
        "alpha": (["morph", "s.ply", "t.ply"], ["--alpha", "0.25"], "0.25"),
        "fmr": (["eval", "s.csv", "n.csv"], ["--fmr", "0.01"], "0.01"),
        "ftar": (["eval", "s.csv", "n.csv"], ["--ftar", "f.csv"], "f.csv"),
        "out": (["quadrants", "s.csv", "n.csv"], ["--out", "OUT"], "OUT"),
        "sigma_correction": (["register", "s.ply", "t.ply"], ["--sigma-correction"], "on"),
    }

    def test_keys_are_the_long_flags(self):
        _, subparsers = cli.build_parser()
        assert set(cli._config_keys(subparsers)) == set(self.CASES)

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_key_parses_like_its_flag(self, key, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        command, flag, value = self.CASES[key]
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={value}\n")
        from_config = parsed_args(command + ["--config", str(config)], monkeypatch)
        from_flag = parsed_args(command + flag, monkeypatch)
        assert from_config == from_flag
        assert from_config != parsed_args(command, monkeypatch)

    @pytest.mark.parametrize(
        "word,on",
        [("1", True), ("true", True), ("yes", True), ("on", True), ("TRUE", True),
         ("0", False), ("false", False), ("no", False), ("off", False), (" Off ", False)],
    )
    def test_sigma_correction_words(self, word, on, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"sigma_correction={word}\n")
        command = ["register", "s.ply", "t.ply"]
        from_config = parsed_args(command + ["--config", str(config)], monkeypatch)
        expected = parsed_args(command + (["--sigma-correction"] if on else []), monkeypatch)
        assert from_config == expected
        assert from_config["use_sigma_correction"] is on

    @pytest.mark.parametrize(
        "line,named",
        [("sigma_correction=maybe", "'maybe'"), ("max_iters=1.5", "'1.5'"),
         ("config=x", "'config'"), ("help=1", "'help'"),
         ("beta 0.5", "line 1: expected key=value, got 'beta 0.5'")],
    )
    def test_bad_value_or_key_exits_1(self, line, named, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        code = cli.main(["register", "s.ply", "t.ply", "--config", str(config),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_unparsable_value_names_file_line_and_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("# run settings\nbeta=0.5\nseed=1.5\n")
        code = cli.main(["register", "s.ply", "t.ply", "--config", str(config),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: line 3: seed: ")
        assert "'1.5'" in err

    def test_byte_order_mark_is_skipped_and_other_bytes_name_the_file(self, tmp_path,
                                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xef\xbb\xbfbeta=0.5\n")
        argv = ["register", "s.ply", "t.ply", "--config", str(config)]
        assert parsed_args(argv, monkeypatch)["beta"] == 0.5
        config.write_bytes(b"# caf\xe9\nbeta=0.5\n")
        code = cli.main(["register", "s.ply", "t.ply", "--config", str(config),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: 'utf-8' codec can't decode byte 0xe9")

    def test_params_follow_registration_params(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        args = parsed_args(["register", "s.ply", "t.ply", "--lambda", "9", "--max-iters", "4",
                            "--sigma-correction"], monkeypatch)
        params = cli._params_from_args(argparse.Namespace(**args))
        assert params == RegistrationParams(lam=9.0, max_iters=4, use_sigma_correction=True)


class TestNegativeDownsample:
    @pytest.mark.parametrize("command", ["register", "morph", "pipeline"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_exits_1_before_any_registration(self, command, from_config, cloud_files,
                                             tmp_path, monkeypatch, capsys):
        def no_register(*args, **kwargs):
            raise AssertionError("register called")

        monkeypatch.setattr(cli, "register", no_register)
        a, b, c, d = (str(cloud_files[k]) for k in "abcd")
        if command == "pipeline":
            pairs = tmp_path / "pairs.csv"
            pairs.write_text(f"subject_a,subject_b,morph_id\n{a},{b},m0\n{c},{d},m1\n")
            inputs = [str(pairs)]
        else:
            inputs = [a, b]
        if from_config:
            config = tmp_path / "run.cfg"
            config.write_text("downsample=-5\n")
            flag = ["--config", str(config)]
        else:
            flag = ["--downsample", "-5"]
        out = tmp_path / "out"
        assert cli.main([command, *inputs, *flag, "--out", str(out)]) == 1
        assert "--downsample must be >= 0, got -5" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestBadAlphaAndSeed:
    # both are checked with the other flags, before any input is read; exit 1
    # is an input error, as 2 would mean a registration that did not converge
    def run_main(self, command, key, value, from_config, cloud_files, tmp_path, monkeypatch):
        def no_register(*args, **kwargs):
            raise AssertionError("register called")

        monkeypatch.setattr(cli, "register", no_register)
        a, b, c, d = (str(cloud_files[k]) for k in "abcd")
        if command == "pipeline":
            pairs = tmp_path / "pairs.csv"
            pairs.write_text(f"subject_a,subject_b,morph_id\n{a},{b},m0\n{c},{d},m1\n")
            inputs = [str(pairs)]
        else:
            inputs = [a, b]
        if from_config:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key}={value}\n")
            flag = ["--config", str(config)]
        else:
            flag = [f"--{key}", value]
        out = tmp_path / "out"
        code = cli.main([command, *inputs, *flag, "--downsample", "50", "--out", str(out)])
        assert list(out.iterdir()) == []
        return code

    @pytest.mark.parametrize("command", ["morph", "pipeline"])
    @pytest.mark.parametrize("from_config", [False, True])
    @pytest.mark.parametrize("value, shown", [("2", "2.0"), ("-0.5", "-0.5"), ("nan", "nan")])
    def test_alpha_outside_unit_interval(self, command, from_config, value, shown,
                                         cloud_files, tmp_path, monkeypatch, capsys):
        code = self.run_main(command, "alpha", value, from_config, cloud_files, tmp_path,
                        monkeypatch)
        assert code == 1
        assert f"--alpha must lie in [0, 1], got {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["register", "morph", "pipeline"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed(self, command, from_config, cloud_files, tmp_path, monkeypatch,
                           capsys):
        code = self.run_main(command, "seed", "-3", from_config, cloud_files, tmp_path, monkeypatch)
        assert code == 1
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err

    def test_register_ignores_alpha_in_config(self, cloud_files, tmp_path, monkeypatch):
        # register has no --alpha; a shared config file may still set it
        monkeypatch.setitem(cli._COMMANDS, "register", lambda args: 0)
        code = self.run_main("register", "alpha", "2", True, cloud_files, tmp_path, monkeypatch)
        assert code == 0


class TestNanHyperparameter:
    # NaN fails every comparison, so each bound is checked as ``not x > 0``
    @pytest.mark.parametrize("command", ["register", "morph", "pipeline"])
    @pytest.mark.parametrize("flag, message", [
        ("beta", "beta must be positive"),
        ("lambda", "lam must be positive"),
        ("gamma", "gamma must be positive"),
        ("kappa", "kappa must be positive"),
        ("tol", "tol must be non-negative"),
    ])
    def test_exits_before_any_input_is_read(self, command, flag, message, cloud_files,
                                            tmp_path, monkeypatch, capsys):
        def no_input(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_ply", no_input)
        monkeypatch.setattr(cli, "read_csv_rows", no_input)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"subject_a,subject_b,morph_id\n{cloud_files['a']},{cloud_files['b']},m\n")
        inputs = [str(pairs)] if command == "pipeline" else [str(cloud_files[k]) for k in "ab"]
        out = tmp_path / "out"
        assert cli.main([command, *inputs, f"--{flag}", "nan", "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def csv_bytes(header, rows):
    lines = [header, *rows]
    return "".join(",".join(line) + "\r\n" for line in lines).encode("utf-8")


def reprs(values):
    return [repr(float(v)) for v in values]


class TestRegisterCsvFiles:
    def test_files_hold_the_registration_exactly(self, cloud_files, tmp_path):
        out = tmp_path / "reg"
        code = cli.main(["register", str(cloud_files["a"]), str(cloud_files["b"]),
                         "--out", str(out), "--downsample", "60", "--seed", "3",
                         "--max-iters", "40"])
        assert code in (0, 2)
        source = downsample(load_ply(cloud_files["a"]), 60, 3)
        target = downsample(load_ply(cloud_files["b"]), 60, 3)
        result = register(source, target, RegistrationParams(max_iters=40))
        t = result.transform
        assert (out / "transform.csv").read_bytes() == csv_bytes(
            ["s", "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
             "t1", "t2", "t3"],
            [reprs([t.scale, *t.rotation.reshape(-1), *t.translation])],
        )
        assert (out / "displacements.csv").read_bytes() == csv_bytes(
            ["vx", "vy", "vz"], [reprs(row) for row in result.displacement]
        )
        assert (out / "normalization.csv").read_bytes() == csv_bytes(
            ["cloud", "cx", "cy", "cz", "scale"],
            [["source", *reprs([*result.source_record.centroid, result.source_record.scale])],
             ["target", *reprs([*result.target_record.centroid, result.target_record.scale])]],
        )
        assert len(result.displacement) == 60


class TestFmrOutsideUnitInterval:
    # checked before either score file is read, however large they are
    @pytest.mark.parametrize("command", ["eval", "quadrants"])
    @pytest.mark.parametrize("from_config", [False, True])
    @pytest.mark.parametrize("value, shown", [
        ("2", "2.0"), ("0", "0.0"), ("1", "1.0"), ("-0.5", "-0.5"), ("nan", "nan"),
    ])
    def test_exits_1_before_any_file_is_read(self, command, from_config, value, shown,
                                             tmp_path, monkeypatch, capsys):
        def no_read(*args, **kwargs):
            raise AssertionError("score file read")

        monkeypatch.setattr(cli, "read_scores_csv", no_read)
        monkeypatch.setattr(cli, "read_nonmated_csv", no_read)
        scores, nonmated = write_eval_fixture(tmp_path)
        if from_config:
            config = tmp_path / "run.cfg"
            config.write_text(f"fmr={value}\n")
            flag = ["--config", str(config)]
        else:
            flag = ["--fmr", value]
        out = tmp_path / "out"
        assert cli.main([command, str(scores), str(nonmated), *flag, "--out", str(out)]) == 1
        assert f"error: --fmr must lie in (0, 1), got {shown}\n" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestRegistrationErrorNamesFlag:
    # every flag whose value RegistrationParams checks, with a value it rejects
    @pytest.mark.parametrize("command", ["register", "morph", "pipeline"])
    @pytest.mark.parametrize("flag, value", [
        ("--beta", "0"), ("--lambda", "nan"), ("--omega", "1"), ("--gamma", "-1"),
        ("--kappa", "0"), ("--tol", "-1"), ("--max-iters", "0"),
    ])
    def test_error_ends_with_the_flag_as_typed(self, command, flag, value, cloud_files,
                                               tmp_path, monkeypatch, capsys):
        def no_input(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "load_ply", no_input)
        monkeypatch.setattr(cli, "read_csv_rows", no_input)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"subject_a,subject_b,morph_id\n{cloud_files['a']},{cloud_files['b']},m\n")
        inputs = [str(pairs)] if command == "pipeline" else [str(cloud_files[k]) for k in "ab"]
        out = tmp_path / "out"
        assert cli.main([command, *inputs, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith(f" ({flag})\n")
        assert list(out.iterdir()) == []
