"""One benchmark process: build a workload's seeded inputs, run it, check it.

run.py starts this script in a fresh interpreter with BLAS and OpenMP
pinned to one thread, once per set-up sample and once for the measured run:

    python3 benchmarks/worker.py --workload pair_m1000 --seed 1 --seconds 10 \
        --trace 0 --work .bench_work/run --launched-at <time.monotonic()>

It writes ``result.json`` into ``--work``. Set-up time runs from
``--launched-at`` (taken by the parent just before the start) to the first
timed call. The measured run repeats passes over the same inputs while
the next pass is expected to end within ``--seconds``, and makes at least
MIN_PASSES passes so that their results can be compared; a pass morphs
every input pair once, then runs ``eval``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cloudmorph  # noqa: E402
from cloudmorph import bcpd, cli, cloudio, morpher  # noqa: E402

import fixtures as fx  # noqa: E402
from tracing import Tracer  # noqa: E402

# The aligned source must be this many times closer to its true position
# than the unregistered source is.
ALIGN_FACTOR = 2.0
REPORT_TOLERANCE = 5e-7  # report.csv prints G-MAP values with 6 decimals
MIN_PASSES = 2


def rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


class Checks:
    """Named pass/fail results; every failure counts as a failed operation."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def run_eval(scores: Path, nonmated: Path, out: Path) -> float:
    start = time.perf_counter()
    code = cli.main(["eval", str(scores), str(nonmated), "--fmr", str(fx.FMR), "--out", str(out)])
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"eval exited with {code}")
    return seconds


def check_report(checks: Checks, table: fx.ScoreTable, report_csv: Path) -> None:
    """Compare report.csv with the values recomputed from the scores."""
    expected = fx.expected_report(table)
    checks.add(
        "eval.designed_share",
        abs(expected["MAMF"] - expected["designed_MAMF"]) < 1e-9 and expected["MAMF"] > 0,
        f"recomputed MAMF {expected['MAMF']:.6f}, designed {expected['designed_MAMF']:.6f}",
    )
    with report_csv.open(newline="", encoding="utf-8") as handle:
        rows = {row[0]: row[1:] for row in csv.reader(handle)}
    for frs in fx.SYSTEMS:
        row = rows.get(frs)
        want = expected[frs]
        ok = (
            row is not None
            and abs(float(row[0]) - want["gmap_ma"]) <= REPORT_TOLERANCE
            and [int(x) for x in row[1:5]] == want["quadrants"]
        )
        checks.add(f"eval.{frs}", ok, f"report {row}, expected {want}")
    mamf = rows.get("MAMF")
    checks.add(
        "eval.MAMF",
        mamf is not None and abs(float(mamf[0]) - expected["MAMF"]) <= REPORT_TOLERANCE,
        f"report {mamf}, expected {expected['MAMF']:.6f}",
    )


def check_morph(checks: Checks, label: str, vertices: np.ndarray, colors: np.ndarray, count: int) -> None:
    checks.add(f"{label}.points", len(vertices) == count, f"{len(vertices)} points, source has {count}")
    checks.add(
        f"{label}.colors",
        bool(np.all((colors >= 0.0) & (colors <= 1.0))),
        f"colors in [{colors.min():.3f}, {colors.max():.3f}]",
    )


def row_index(vertices: np.ndarray) -> dict:
    """Map each vertex row's bytes to its index, to find a subsample's rows."""
    return {row.tobytes(): i for i, row in enumerate(vertices)}


class PairWorkload:
    """Seeded pairs morphed through the library API.

    A pass morphs each of ``pairs`` independently drawn pairs once, pooling
    them to steady ``aligned_rms`` across seeds. The stored scans hold twice
    the registered point counts and are subsampled by the program, as the
    CLI's ``--downsample`` does. Subsample seeds are drawn from the workload
    seed: with the consecutive seeds ``seed + k``, the pooled ``aligned_rms``
    of nearby workload seeds was correlated and its spread over ten seeds
    was two to three times wider.
    """

    def __init__(self, m: int, n: int, max_iters: int, pairs: int, eval_morphs: int) -> None:
        self.m, self.n = m, n
        self.params = bcpd.RegistrationParams(max_iters=max_iters)
        self.morphs_per_pass = pairs
        self.eval_morphs = eval_morphs

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.work = work
        self.pairs = []
        for k in range(self.morphs_per_pass):
            pair = fx.warped_pair(rng, 2 * self.m, 2 * self.n)
            paths = (work / f"source{k}.ply", work / f"target{k}.ply")
            fx.write_ply(paths[0], pair.source, pair.source_colors)
            fx.write_ply(paths[1], pair.target, pair.target_colors)
            subsample_seeds = [int(x) for x in rng.integers(2**31, size=2)]
            self.pairs.append((pair, paths, subsample_seeds))
        self.table = fx.score_table(rng, self.eval_morphs)
        self.scores = work / "scores.csv"
        self.nonmated = work / "nonmated.csv"
        fx.write_scores(self.table, self.scores, self.nonmated)

    def morph_step(self, untraced) -> tuple[list[float], list[float]]:
        """Morph every pair; returns each pair's step seconds and morph seconds.

        A step runs from loading the scans to saving the morph. A morph runs
        from the two subsampled clouds to the blended cloud.
        """
        steps, morphs, self.observed = [], [], []
        for k in range(len(self.pairs)):
            seconds, morph_seconds = self._morph_pair(k, untraced)
            steps.append(seconds)
            morphs.append(morph_seconds)
        return steps, morphs

    def _morph_pair(self, k: int, untraced) -> tuple[float, float]:
        pair, (source_path, target_path), (source_seed, target_seed) = self.pairs[k]
        start = time.perf_counter()
        source = cloudio.load_ply(source_path)
        target = cloudio.load_ply(target_path)
        source_sub = cloudio.downsample(source, self.m, source_seed)
        target_sub = cloudio.downsample(target, self.n, target_seed)
        morph_start = time.perf_counter()
        result = bcpd.register(source_sub, target_sub, self.params)
        aligned = morpher.aligned_colored_source(
            result.source_normalized, result.transform, result.displacement
        )
        coords, colors = morpher.correspondence_targets(result.state, result.target_normalized)
        blended = morpher.morph(aligned, coords, colors, morpher.MorphConfig(0.5), target_id=target.id)
        morph_end = time.perf_counter()
        out = cloudio.denormalize(blended, result.target_record)
        cloudio.save_ply(out, self.work / f"morph{k}.ply")
        end = time.perf_counter()
        with untraced():
            self.observed.append(self._observe(pair, source, source_sub, result, out))
        return end - start, morph_end - morph_start

    def _observe(self, pair, source, source_sub, result, out) -> dict:
        index = row_index(source.vertices)
        truth = pair.truth[[index[row.tobytes()] for row in source_sub.vertices]]
        return {
            "iterations": result.iterations,
            "converged": result.converged,
            "error": result.aligned_source().vertices - truth,
            "baseline": source_sub.vertices - truth,
            "out": out,
        }

    def outcome(self) -> dict:
        """Deterministic results of the last pass, compared across passes and runs."""
        seen = self.observed
        return {
            "iterations": sum(o["iterations"] for o in seen),
            "cap_hits": sum(not o["converged"] for o in seen),
            "aligned_rms": rms(np.concatenate([o["error"] for o in seen]), 0.0),
            "unregistered_rms": rms(np.concatenate([o["baseline"] for o in seen]), 0.0),
        }

    def check(self, checks: Checks) -> None:
        for k, observed in enumerate(self.observed):
            out = observed["out"]
            check_morph(checks, f"morph{k}", out.vertices, out.colors, self.m)
            saved = cloudio.load_ply(self.work / f"morph{k}.ply")
            check_morph(checks, f"morph{k}.saved", saved.vertices, saved.colors, self.m)


class BatchWorkload:
    """``cloudmorph pipeline`` over stored subjects, then ``cloudmorph eval``.

    The pairing list gives every pair alpha 1.0, so each saved morph is the
    aligned source itself and ``aligned_rms`` means the same as on the pair
    workloads. Registration and correspondence run as for any alpha.
    """

    def __init__(
        self, subjects: int, points: int, pairs: int, downsample: int, max_iters: int, eval_morphs: int
    ) -> None:
        self.subject_count = subjects
        self.max_iters = max_iters
        self.morphs_per_pass = pairs
        self.points = points
        self.downsample = downsample
        self.eval_morphs = eval_morphs

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.work = work
        self.subjects = fx.subjects(rng, self.subject_count, self.points)
        self.paths = []
        for subject in self.subjects:
            path = work / f"{subject.name}.ply"
            fx.write_ply(path, subject.vertices, subject.colors)
            self.paths.append(path)
        ordered = [(a, b) for a in range(self.subject_count) for b in range(self.subject_count) if a != b]
        chosen = rng.choice(len(ordered), size=self.morphs_per_pass, replace=False)
        self.pairs = [ordered[i] for i in chosen]
        self.pairs_csv = work / "pairs.csv"
        with self.pairs_csv.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["subject_a", "subject_b", "morph_id", "alpha"])
            for k, (a, b) in enumerate(self.pairs):
                writer.writerow([self.paths[a], self.paths[b], f"morph{k:02d}", "1.0"])
        self.table = fx.score_table(rng, self.eval_morphs)
        self.scores = work / "scores.csv"
        self.nonmated = work / "nonmated.csv"
        fx.write_scores(self.table, self.scores, self.nonmated)
        self.out = work / "pipeline"

    def morph_step(self, untraced) -> tuple[list[float], list[float]]:
        """Runs the pipeline; per morph, the CLI gives only its mean, which
        serves as both the step and the morph seconds."""
        start = time.perf_counter()
        code = cli.main([
            "pipeline", str(self.pairs_csv), "--downsample", str(self.downsample),
            "--max-iters", str(self.max_iters), "--seed", str(self.seed), "--out", str(self.out),
        ])
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"pipeline exited with {code}")
        per_morph = seconds / self.morphs_per_pass
        return [per_morph], [per_morph]

    def manifest(self) -> list[dict]:
        with (self.out / "manifest.csv").open(newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))

    def outcome(self) -> dict:
        """Iterations from the manifest and alignment error of every morph.

        A morph vertex should sit where its source point's (u, v) lies on
        the target subject. The pipeline subsamples subject k of pair k with
        seed ``--seed + k``; the same call here recovers which points those
        were.
        """
        rows = self.manifest()
        loaded = {}
        errors, baseline = [], []
        for k, (a, b) in enumerate(self.pairs):
            if a not in loaded:
                loaded[a] = cloudio.load_ply(self.paths[a])
            source_sub = cloudio.downsample(loaded[a], self.downsample, self.seed + k)
            index = row_index(loaded[a].vertices)
            uv = self.subjects[a].uv[[index[row.tobytes()] for row in source_sub.vertices]]
            truth = self.subjects[b].at(uv)
            path = self.out / f"morph{k:02d}.ply"
            if not path.exists():
                continue  # counted by the manifest and morph checks
            errors.append(cloudio.load_ply(path).vertices - truth)
            baseline.append(source_sub.vertices - truth)
        zero = np.zeros((0, 3))
        errors = np.concatenate(errors) if errors else zero
        baseline = np.concatenate(baseline) if baseline else zero
        return {
            "iterations": sum(int(r["iterations"] or 0) for r in rows),
            "cap_hits": sum(r["status"] == "not_converged" for r in rows),
            "aligned_rms": rms(errors, 0.0),
            "unregistered_rms": rms(baseline, 0.0),
        }

    def check(self, checks: Checks) -> None:
        rows = self.manifest()
        checks.add("manifest.rows", len(rows) == self.morphs_per_pass, f"{len(rows)} rows")
        for row in rows:
            checks.add(
                f"manifest.{row['morph_id']}",
                row["status"] in ("converged", "not_converged"),
                f"status {row['status']!r} {row['detail']}",
            )
        count = min(self.downsample, self.points)
        for k in range(self.morphs_per_pass):
            path = self.out / f"morph{k:02d}.ply"
            if checks.add(f"morph{k:02d}.exists", path.exists(), str(path.name)):
                saved = cloudio.load_ply(path)
                check_morph(checks, f"morph{k:02d}", saved.vertices, saved.colors, count)


WORKLOADS = {
    "pair_m1000": lambda: PairWorkload(m=1000, n=1000, max_iters=10, pairs=4, eval_morphs=1000),
    "wide_target": lambda: PairWorkload(m=400, n=6000, max_iters=10, pairs=8, eval_morphs=1000),
    "batch": lambda: BatchWorkload(
        subjects=6, points=30000, pairs=12, downsample=300, max_iters=60, eval_morphs=5000
    ),
}


def code_hash() -> str:
    """Hash of the program and benchmark sources, to key repeatability records."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(checks: Checks, record_path: Path, counts: dict) -> None:
    """Counts must equal those of every earlier run of the same code and seed."""
    previous = json.loads(record_path.read_text()) if record_path.exists() else {}
    for key, value in counts.items():
        if key in previous:
            checks.add(f"repeat.{key}", previous[key] == value, f"{value!r}, earlier run {previous[key]!r}")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps({**previous, **counts}, indent=1, sort_keys=True))


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cloudmorph": cloudmorph.__version__,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "code": code_hash(),
    }


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer values per pass over the workload's inputs."""
    summary = tracer.summary()
    counts = tracer.counts
    out = {}
    for name, entry in summary.items():
        out[f"{name}.calls"] = entry["calls"] / passes
        out[f"{name}.s"] = entry["s"] / passes
        out[f"{name}.self_s"] = entry["self_s"] / passes
    for name, value in counts.items():
        out[name] = value / passes
    iterations = counts.get("bcpd.iterations", 0)
    if "bcpd.register" in summary and iterations:
        out["bcpd.s_per_iter"] = summary["bcpd.register"]["s"] / iterations
    out["trace.spans"] = len(tracer.spans) / passes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    args.work.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, args.work)
    setup_s = time.monotonic() - args.launched_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        (args.work / "result.json").write_text(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    untraced = tracer.paused if tracer else contextlib.nullcontext
    if tracer:
        tracer.install()
    passes, step_s, morph_s, eval_s, outcomes, errors = 0, [], [], [], [], []

    start = time.perf_counter()
    while passes < MIN_PASSES or (
        (time.perf_counter() - start) * (passes + 1) / passes <= args.seconds
    ):
        try:
            steps, per_morph = workload.morph_step(untraced)
            eval_s.append(run_eval(workload.scores, workload.nonmated, args.work / "eval"))
            with untraced():
                outcome = workload.outcome()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            if len(errors) >= 3:
                break
            continue
        passes += 1
        step_s.extend(steps)
        morph_s.extend(per_morph)
        outcomes.append(outcome)
    if tracer:
        tracer.uninstall()

    checks = Checks()
    env = environment(args.seed)
    layers = layer_metrics(tracer, passes) if tracer and passes else {}
    if passes:
        try:
            workload.check(checks)
            check_report(checks, workload.table, args.work / "eval" / "report.csv")
        except Exception as exc:  # an unreadable output fails the check
            checks.add("outputs.readable", False, f"{type(exc).__name__}: {exc}")
        first = outcomes[0]
        for later in outcomes[1:]:
            checks.add("repeat.passes", later == first, f"{later} vs {first}")
        checks.add(
            "aligned_rms",
            first["aligned_rms"] * ALIGN_FACTOR < first["unregistered_rms"],
            f"{first['aligned_rms']:.4f} vs unregistered {first['unregistered_rms']:.4f}"
            f" / {ALIGN_FACTOR:g}",
        )
        repeatable = dict(first)
        repeatable.update({
            k: v for k, v in layers.items()
            if k.endswith(("_computed", ".calls")) or k in ("bcpd.iterations", "bcpd.cap_hits", "metrics.records")
        })
        record = ROOT / ".bench_work" / "records" / env["code"] / f"{args.workload}-{args.seed}.json"
        check_repeat(checks, record, repeatable)

    # Every morph, eval and correctness check is one attempted operation.
    morphs = passes * workload.morphs_per_pass
    result.update({
        "workload": args.workload,
        "trace": args.trace,
        "passes": passes,
        "attempted": morphs + len(eval_s) + len(errors) + len(checks.results),
        "failed": len(errors) + checks.failed,
        "errors": errors,
        "checks": checks.results,
        "environment": env,
        "samples": {"morph_s": morph_s, "eval_s": eval_s, "step_s": step_s},
    })
    if passes:
        result["metrics"] = {
            "morph_s": statistics.median(morph_s),
            "morphs_per_s": 1.0 / statistics.median(step_s),
            "eval_s": statistics.median(eval_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "aligned_rms": outcomes[0]["aligned_rms"],
            "unregistered_rms": outcomes[0]["unregistered_rms"],
            "iterations": outcomes[0]["iterations"],
        }
    if tracer:
        result["layers"] = layers
        if passes:
            layers["cli.eval.s"] = statistics.median(eval_s)
        result["absent"] = tracer.absent
        trace_path = ROOT / ".bench_work" / "traces" / f"{args.workload}-{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
