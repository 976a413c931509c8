"""Attack-potential metrics over face-recognition comparison scores.

A score table holds one row per (morph, probe attempt, recognition system)
with the similarity scores of every subject who contributed to the morph.
A morph defeats a system on an attempt when every contributing subject's
score strictly exceeds that system's threshold. The metric family
aggregates these successes:

- per system, averaged over morphs and attempts (the "single system" value),
- across systems, taking the worst case per (morph, attempt) cell before
  averaging, optionally discounted by failure-to-acquire rates,
- across morph generation types, averaging the per-type results.

Thresholds are set empirically from non-mated score distributions at a
chosen false-match rate.

Every value is read from one success table, built once per call: per morph
type, a 0/1 array over (morph, attempt, system). A system's value is the
mean of its slice; the cross-system value takes the minimum over the system
axis, weighted by acquisition rates, before averaging.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyScoresError,
    MissingThresholdError,
    RaggedDataError,
    UnsupportedArityError,
)

QUADRANTS = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class ScoreRecord:
    """Scores of one morph probed in one attempt against one system.

    subject_scores holds one similarity score per contributing subject
    (two for a standard morph); morph_type labels the generation method.
    """

    morph_id: str
    frs_id: str
    attempt_index: int
    subject_scores: tuple[float, ...]
    morph_type: str = "default"

    def __post_init__(self) -> None:
        scores = tuple(float(s) for s in self.subject_scores)
        if len(scores) < 2:
            raise ValueError("a morph needs at least two subject scores")
        if not all(map(math.isfinite, scores)):
            raise ValueError("subject scores must be finite")
        if self.attempt_index < 1:
            raise ValueError("attempt_index must be >= 1")
        object.__setattr__(self, "subject_scores", scores)


@dataclass(frozen=True)
class FrsThreshold:
    """Decision threshold of one recognition system at a target false-match
    rate. ``saturated`` flags that no observed score achieved the target."""

    frs_id: str
    tau: float
    fmr_target: float
    saturated: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.fmr_target < 1.0:
            raise ValueError("fmr_target must lie in (0, 1)")


@dataclass(frozen=True)
class FtarTable:
    """Failure-to-acquire rates keyed by (attempt_index, frs_id).

    Missing entries count as zero, so an empty table means perfect
    acquisition.
    """

    rates: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for (attempt, frs_id), value in dict(self.rates).items():
            value = float(value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"FTAR for attempt {attempt}, frs {frs_id!r} must lie in [0, 1]"
                )
            clean[(int(attempt), str(frs_id))] = value
        object.__setattr__(self, "rates", clean)

    def get(self, attempt_index: int, frs_id: str) -> float:
        return self.rates.get((attempt_index, frs_id), 0.0)


@dataclass(frozen=True)
class GmapReport:
    """Per-system percentages, the cross-system worst case, and quadrant
    tallies."""

    per_frs: dict
    cross_frs: float
    quadrant_counts: dict
    n_morphs: int
    n_attempts: int


def threshold_at_fmr(nonmated_scores, fmr_target: float, frs_id: str = "") -> FrsThreshold:
    """Smallest observed score whose exceedance rate is at most fmr_target.

    The threshold tau satisfies count(scores >= tau) / total <= fmr_target;
    downstream comparisons are strict (score > tau), so the achieved
    false-match rate never exceeds the target. When even the maximum score
    fails the target (too many ties, too few scores), the maximum is
    returned with ``saturated`` set.
    """
    scores = np.asarray(list(nonmated_scores), dtype=np.float64)
    if scores.size == 0:
        raise EmptyScoresError("cannot compute a threshold from an empty score set")
    if not 0.0 < fmr_target < 1.0:
        raise ValueError("fmr_target must lie in (0, 1)")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-mated scores must be finite")
    n = scores.size
    if n < 1.0 / fmr_target:
        warnings.warn(
            f"only {n} non-mated scores for an FMR target of {fmr_target}; "
            f"at least {int(np.ceil(1.0 / fmr_target))} are recommended",
            stacklevel=2,
        )
    ordered = np.sort(scores)
    uniq = np.unique(ordered)
    at_or_above = n - np.searchsorted(ordered, uniq, side="left")
    admissible = at_or_above / n <= fmr_target
    if admissible.any():
        tau = float(uniq[int(np.argmax(admissible))])
        return FrsThreshold(frs_id, tau, fmr_target, saturated=False)
    return FrsThreshold(frs_id, float(uniq[-1]), fmr_target, saturated=True)


def quadrant_classify(record: ScoreRecord, threshold: FrsThreshold) -> str:
    """Quadrant of (subject-1 score, subject-2 score) against the threshold.

    "I" means both scores are above (a successful attack), "II" only the
    second, "IV" only the first, "III" neither. Comparisons are strict, so
    a score equal to the threshold does not count as above it.
    """
    if len(record.subject_scores) != 2:
        raise UnsupportedArityError(
            f"quadrants are defined for 2 subjects, record has {len(record.subject_scores)}"
        )
    s1, s2 = record.subject_scores
    above1 = s1 > threshold.tau
    above2 = s2 > threshold.tau
    if above1 and above2:
        return "I"
    if above2:
        return "II"
    if above1:
        return "IV"
    return "III"


def _success_tables(records, thresholds) -> tuple[list, list, list]:
    """Sorted attempts, sorted systems, and per morph type (sorted) a 0/1
    array over (sorted morphs, attempts, systems): 1 where every subject
    score of the cell's record exceeds the system's threshold.

    Raises MissingThresholdError for a system without a threshold, and
    RaggedDataError naming the first duplicate cell in input order, then the
    first missing cell in type, morph, attempt, system order.
    """
    tau = {frs_id: t.tau for frs_id, t in _thresholds_by_frs(records, thresholds).items()}
    systems = list(tau)
    attempts = sorted({r.attempt_index for r in records})
    types = sorted({r.morph_type for r in records})
    morphs = {d: sorted({r.morph_id for r in records if r.morph_type == d}) for d in types}
    morph_pos = {d: {m: j for j, m in enumerate(ids)} for d, ids in morphs.items()}
    attempt_pos = {a: i for i, a in enumerate(attempts)}
    frs_pos = {f: k for k, f in enumerate(systems)}
    # NaN marks a cell no record has filled yet
    tables = {d: np.full((len(morphs[d]), len(attempts), len(systems)), np.nan)
              for d in types}
    for rec in records:
        cell = (morph_pos[rec.morph_type][rec.morph_id],
                attempt_pos[rec.attempt_index], frs_pos[rec.frs_id])
        table = tables[rec.morph_type]
        if not np.isnan(table[cell]):
            raise RaggedDataError(
                f"duplicate cell: type={rec.morph_type!r} morph={rec.morph_id!r} "
                f"attempt={rec.attempt_index} frs={rec.frs_id!r}"
            )
        table[cell] = min(rec.subject_scores) > tau[rec.frs_id]
    for d in types:
        missing = np.argwhere(np.isnan(tables[d]))
        if missing.size:
            j, i, k = missing[0]
            raise RaggedDataError(
                f"missing cell: type={d!r} morph={morphs[d][j]!r} "
                f"attempt={attempts[i]} frs={systems[k]!r}"
            )
    return attempts, systems, [tables[d] for d in types]


def _percent(tables, attempts, systems, ftar: FtarTable | None = None) -> float:
    """100 × the mean over types of the mean over (morph, attempt) cells of
    the worst system's success × (1 - failure-to-acquire)."""
    ftar = ftar if ftar is not None else FtarTable()
    kept = np.array([[1.0 - ftar.get(a, f) for f in systems] for a in attempts])
    return 100.0 * float(np.mean([float((t * kept).min(axis=2).mean()) for t in tables]))


def gmap(records, thresholds, ftar: FtarTable | None = None) -> float:
    """Generalized attack-potential percentage over the full score table.

    Every (attempt, morph) cell is scored with the worst case across
    recognition systems of success * (1 - failure-to-acquire); cell scores
    are averaged per generation type, and the per-type averages are
    averaged. Requires a rectangular table: every morph must be scored for
    every attempt under every system, otherwise RaggedDataError is raised.
    """
    records = list(records)
    if not records:
        raise EmptyScoresError("no score records")
    attempts, systems, tables = _success_tables(records, thresholds)
    return _percent(tables, attempts, systems, ftar)


def gmap_ma(records, threshold: FrsThreshold) -> float:
    """Single-system attack potential with failure-to-acquire ignored.

    Expects records from one system and one generation type; equals the
    general metric restricted accordingly.
    """
    records = list(records)
    types = {r.morph_type for r in records}
    if len(types) > 1:
        raise ValueError(f"expected a single morph type, got {sorted(types)}")
    return gmap(records, [threshold], FtarTable())


def gmap_mamf(records, thresholds, ftar: FtarTable | None = None) -> float:
    """Worst-case-across-systems attack potential for one generation type.

    Each (attempt, morph) cell takes the minimum over systems of
    success * (1 - failure-to-acquire) before averaging.
    """
    records = list(records)
    if not records:
        raise EmptyScoresError("no score records")
    frs_present = {r.frs_id for r in records}
    if len(frs_present) < 2:
        raise ValueError("the cross-system metric needs at least two systems")
    types = {r.morph_type for r in records}
    if len(types) > 1:
        raise ValueError(f"expected a single morph type, got {sorted(types)}")
    return gmap(records, thresholds, ftar)


def _thresholds_by_frs(records, thresholds) -> dict:
    """frs_id -> threshold for every system in ``records``, in sorted order;
    MissingThresholdError when one has none."""
    threshold_map = {t.frs_id: t for t in thresholds}
    by_frs = {}
    for frs_id in sorted({r.frs_id for r in records}):
        if frs_id not in threshold_map:
            raise MissingThresholdError(f"no threshold for frs_id {frs_id!r}")
        by_frs[frs_id] = threshold_map[frs_id]
    return by_frs


def quadrant_counts(records, thresholds) -> dict:
    """Per system (in sorted order), how many records fall in each quadrant.

    Only two-subject records have a quadrant; records of more subjects are
    not counted.
    """
    records = list(records)
    by_frs = _thresholds_by_frs(records, thresholds)
    counts = {frs_id: {q: 0 for q in QUADRANTS} for frs_id in by_frs}
    for rec in records:
        if len(rec.subject_scores) == 2:
            counts[rec.frs_id][quadrant_classify(rec, by_frs[rec.frs_id])] += 1
    return counts


def build_report(records, thresholds, ftar: FtarTable | None = None) -> GmapReport:
    """Assemble per-system values, the cross-system value, and quadrant
    counts (for two-subject records) into one report.

    Per-system values ignore failure-to-acquire by definition; the
    cross-system value honours the supplied table. Records of more than two
    subjects count in both values but in no quadrant.
    """
    records = list(records)
    if not records:
        raise EmptyScoresError("no score records")
    attempts, systems, tables = _success_tables(records, thresholds)
    per_frs = {
        frs_id: _percent([t[:, :, [k]] for t in tables], attempts, [frs_id])
        for k, frs_id in enumerate(systems)
    }
    cross = _percent(tables, attempts, systems, ftar)
    return GmapReport(
        per_frs=per_frs,
        cross_frs=cross,
        quadrant_counts=quadrant_counts(records, thresholds),
        n_morphs=len({r.morph_id for r in records}),
        n_attempts=len(attempts),
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

SCORES_COLUMNS = ("morph_id", "morph_type", "frs_id", "attempt", "score_s1", "score_s2")
NONMATED_COLUMNS = ("frs_id", "score")
FTAR_COLUMNS = ("frs_id", "attempt", "ftar")


def read_csv_rows(path, columns, parse):
    """Yield ``parse(row)`` for each row (a dict by column) of a CSV file.

    A header lacking any of ``columns`` raises one ValueError naming them all;
    a TypeError or ValueError from ``parse`` is raised again as
    ``"{path}: row {n}: {exc}"``, the header being row 1."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        have = reader.fieldnames or []
        missing = [c for c in columns if c not in have]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}; found {have}")
        for row_num, row in enumerate(reader, start=2):
            try:
                item = parse(row)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: row {row_num}: {exc}") from exc
            yield item


def write_csv_rows(path, header, rows) -> None:
    """Write ``header``, then each of the iterable ``rows`` as it comes."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _score_record(row) -> ScoreRecord:
    return ScoreRecord(row["morph_id"], row["frs_id"], int(row["attempt"]),
                       (float(row["score_s1"]), float(row["score_s2"])), row["morph_type"])


def read_scores_csv(path) -> list[ScoreRecord]:
    """Read `morph_id,morph_type,frs_id,attempt,score_s1,score_s2` rows."""
    records = list(read_csv_rows(path, SCORES_COLUMNS, _score_record))
    if not records:
        raise EmptyScoresError(f"{path}: no score rows")
    return records


def _nonmated_row(row) -> tuple[str, float]:
    score = float(row["score"])
    if not math.isfinite(score):
        raise ValueError(f"non-mated score {row['score']!r} must be finite")
    return row["frs_id"], score


def read_nonmated_csv(path) -> dict:
    """Read `frs_id,score` rows into per-system score lists."""
    scores: dict[str, list[float]] = {}
    for frs_id, score in read_csv_rows(path, NONMATED_COLUMNS, _nonmated_row):
        scores.setdefault(frs_id, []).append(score)
    if not scores:
        raise EmptyScoresError(f"{path}: no non-mated rows")
    return scores


def read_ftar_csv(path) -> FtarTable:
    """Read `frs_id,attempt,ftar` rows into a failure-to-acquire table; a
    second row for the same system and attempt is an error."""
    rates = {}

    def add(row) -> None:
        key = (int(row["attempt"]), row["frs_id"])
        if key in rates:
            raise ValueError(f"duplicate row for frs_id {key[1]!r}, attempt {key[0]}")
        rate = float(row["ftar"])
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"FTAR {row['ftar']!r} must lie in [0, 1]")
        rates[key] = rate

    for _ in read_csv_rows(path, FTAR_COLUMNS, add):
        pass
    return FtarTable(rates)


def write_report_csv(report: GmapReport, path) -> None:
    """Write `frs_id,gmap_ma,quad1,quad2,quad3,quad4` rows plus a final
    `MAMF,<value>` row with the cross-system result."""
    rows = [
        [frs_id, f"{report.per_frs[frs_id]:.6f}"]
        + [report.quadrant_counts[frs_id][q] for q in QUADRANTS]
        for frs_id in sorted(report.per_frs)
    ]
    rows.append(["MAMF", f"{report.cross_frs:.6f}"])
    write_csv_rows(path, ["frs_id", "gmap_ma", "quad1", "quad2", "quad3", "quad4"], rows)


def write_scatter_csv(records, thresholds, path) -> None:
    """Write plot-ready `morph_id,frs_id,attempt,score_s1,score_s2,quadrant`
    rows, one per record, in input order.

    Every record is classified before the file is opened, so a record without
    a threshold or with other than two subject scores raises and leaves no
    file behind.
    """
    records = list(records)
    by_frs = _thresholds_by_frs(records, thresholds)
    quads = [quadrant_classify(rec, by_frs[rec.frs_id]) for rec in records]
    write_csv_rows(
        path,
        ["morph_id", "frs_id", "attempt", "score_s1", "score_s2", "quadrant"],
        ([rec.morph_id, rec.frs_id, rec.attempt_index, *map(repr, rec.subject_scores), quad]
         for rec, quad in zip(records, quads)),
    )
