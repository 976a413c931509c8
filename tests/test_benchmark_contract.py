"""The traced benchmark's contract with the program, checked in-process.

``benchmarks/tracing.py`` wraps the program's layer functions by their
module-level names, and some of them (the counted layers) get a hook that
reads the call's arguments or result. A traced run of ``benchmarks/run.py``
exits 1 when a layer it declares in ``BENCHMARK.json`` yields no metric: a
counted layer no longer reached, or reached with arguments its hook cannot
read (``solve_spd`` called by keyword, say). CI fails the run as well when
a layer function is absent. This test runs one small ``pipeline`` and one
``eval`` under the tracer and asserts both conditions. It reads the
benchmark's files and changes none of them.
"""

import json
import sys
from pathlib import Path

import numpy as np

from cloudmorph import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import fixtures as fx  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

# added by run.py and the worker from pass timings, not by the tracer
FROM_TIMINGS = {"traced.morph_s", "cli.eval.s"}


def test_traced_pipeline_and_eval_produce_every_declared_layer_metric(tmp_path):
    rng = np.random.default_rng(1)
    paths = []
    for subject in fx.subjects(rng, 2, 400):
        path = tmp_path / f"{subject.name}.ply"
        fx.write_ply(path, subject.vertices, subject.colors)
        paths.append(path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"subject_a,subject_b,morph_id\n{paths[0]},{paths[1]},m0\n")
    scores, nonmated = tmp_path / "scores.csv", tmp_path / "nonmated.csv"
    fx.write_scores(fx.score_table(rng, 20), scores, nonmated)

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["pipeline", str(pairs), "--downsample", "60", "--max-iters", "3",
                         "--out", str(tmp_path / "morphs")]) == 0
        assert cli.main(["eval", str(scores), str(nonmated), "--fmr", str(fx.FMR),
                         "--out", str(tmp_path / "eval")]) == 0
    finally:
        tracer.uninstall()

    assert tracer.absent == []
    spec = json.loads((BENCHMARKS.parent / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in spec["per_layer"]}
    assert sorted(declared - FROM_TIMINGS - set(worker.layer_metrics(tracer, 1))) == []

    # A hook that cannot read its call is counted in trace.count_errors and
    # leaves its metric at 0. The E-step's reads an M x N argument the
    # E-step no longer takes (ROADMAP item 1), so it fails once per call;
    # every other hook must count.
    counted = set(tracer.counts) - {"trace.count_errors", "bcpd.e_step.bytes_computed"}
    assert sorted(name for name in counted if not tracer.counts[name] > 0) == []
    assert tracer.counts["trace.count_errors"] <= tracer.summary()["bcpd.e_step"]["calls"]
