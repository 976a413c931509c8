"""Attack-potential metrics over face-recognition comparison scores.

A score table holds one row per (morph, probe attempt, recognition system)
with the similarity scores of the two subjects who contributed to the
morph. A morph defeats a system on an attempt when both subjects' scores
strictly exceed that system's threshold. The metric family
aggregates these successes:

- per system, averaged over morphs and attempts (the "single system" value),
- across systems, taking the worst case per (morph, attempt) cell before
  averaging, optionally discounted by failure-to-acquire rates,
- across morph generation types, averaging the per-type results.

Thresholds are set empirically from non-mated score distributions at a
chosen false-match rate.

Scores are held column by column in a ScoreTable: integer codes for the
morph, morph type and system names, the attempt indices and the two
subject scores. The CSV reader streams rows into those arrays, and
``ScoreTable.from_rows`` builds a table in memory by the same row rule;
every metric function takes a table. Every value
is read from one success table, built once per call by indexing the
columns: per morph type, a 0/1 array over (morph, attempt, system). A
system's value is the mean of its slice; the cross-system value takes the
minimum over the system axis, weighted by acquisition rates, before
averaging.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ._record import Record
from .errors import EmptyScoresError, MissingThresholdError, RaggedDataError

QUADRANTS = ("I", "II", "III", "IV")
# index into QUADRANTS by (score 1 above) + 2 * (score 2 above)
_QUADRANT_INDEX = (2, 3, 1, 0)


@dataclass(frozen=True, eq=False)
class ScoreTable(Record):
    """Two-subject score rows held column by column.

    ``morph``, ``morph_type`` and ``frs`` hold int32 codes into the name
    tuples ``morph_ids``, ``morph_types`` and ``frs_ids``, which list each
    name present once, in sorted order. ``attempt`` holds the attempt
    indices, and ``scores`` is (rows, 2): each row's two subject scores.
    The five arrays are made read-only, not copied, when the table is
    built, so no write can skip the row rule.
    """

    morph_ids: tuple
    morph_types: tuple
    frs_ids: tuple
    morph: np.ndarray
    morph_type: np.ndarray
    frs: np.ndarray
    attempt: np.ndarray
    scores: np.ndarray

    @classmethod
    def _from_rows(cls, rows) -> ScoreTable:
        """Stream ``(morph_id, morph_type, frs_id, attempt, scores)`` rows of
        two scores into typed arrays, keeping no row object."""
        morphs, types, systems = {}, {}, {}  # name -> first-seen code
        codes, attempts, scores = array("i"), array("q"), array("d")
        for morph_id, morph_type, frs_id, attempt, row_scores in rows:
            codes.append(morphs.setdefault(morph_id, len(morphs)))
            codes.append(types.setdefault(morph_type, len(types)))
            codes.append(systems.setdefault(frs_id, len(systems)))
            attempts.append(attempt)
            scores.extend(row_scores)
        codes = np.frombuffer(codes, dtype=np.int32).reshape(-1, 3)
        names, columns = [], []
        for k, seen in enumerate((morphs, types, systems)):
            names.append(tuple(sorted(seen)))
            rank = np.empty(len(seen), dtype=np.int32)
            rank[[seen[name] for name in names[-1]]] = np.arange(len(seen))
            columns.append(rank[codes[:, k]])
        return cls(
            *names, *columns, np.frombuffer(attempts, dtype=np.int64),
            np.frombuffer(scores, dtype=np.float64).reshape(len(codes), 2),
        )

    @classmethod
    def from_rows(cls, rows) -> ScoreTable:
        """The table of ``rows``, each ``(morph_id, morph_type, frs_id,
        attempt, score_s1, score_s2)`` in SCORES_COLUMNS order and checked by
        the rule read_scores_csv applies, with its messages; a row of another
        length raises a ValueError naming its 1-based position, and
        EmptyScoresError is raised when there are none."""
        table = cls._from_rows(_sized_score_row(n, *row) for n, row in enumerate(rows, 1))
        if not len(table):
            raise EmptyScoresError("no score rows")
        return table

    def __len__(self) -> int:
        return len(self.attempt)


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

    Attempts count from 1, as in score rows. Missing entries count as zero,
    so an empty table means perfect acquisition. ``rates`` is a read-only
    view of the checked entries, so no write can skip their check.
    """

    rates: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        rates = dict(_ftar_entry(f, a, v) for (a, f), v in dict(self.rates).items())
        object.__setattr__(self, "rates", MappingProxyType(rates))

    def __reduce__(self):
        # the one record with its own rebuild arguments: a mapping proxy cannot be pickled
        return FtarTable, (dict(self.rates),)

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


def quadrant_classify(s1: float, s2: float, threshold: FrsThreshold) -> str:
    """Quadrant of (subject-1 score, subject-2 score) against the threshold.

    "I" means both scores are above (a successful attack), "II" only the
    second, "IV" only the first, "III" neither. Comparisons are strict, so
    a score equal to the threshold does not count as above it.
    """
    return QUADRANTS[_QUADRANT_INDEX[(s1 > threshold.tau) + 2 * (s2 > threshold.tau)]]


def _taus(table: ScoreTable, thresholds) -> np.ndarray:
    """Threshold of each system of ``table``, indexed by its code;
    MissingThresholdError names the first system, in sorted order, that has
    none."""
    tau = {t.frs_id: t.tau for t in thresholds}
    for frs_id in table.frs_ids:
        if frs_id not in tau:
            raise MissingThresholdError(f"no threshold for frs_id {frs_id!r}")
    return np.array([tau[frs_id] for frs_id in table.frs_ids], dtype=np.float64)


def _success_tables(table: ScoreTable, thresholds) -> tuple[list, list, list]:
    """Sorted attempts, sorted systems, and per morph type (sorted) a 0/1
    array over (sorted morphs, attempts, systems): 1 where both subject
    scores of the cell's row exceed the system's threshold.

    Raises MissingThresholdError for a system without a threshold, and
    RaggedDataError naming the first duplicate cell in input order, then the
    first missing cell in type, morph, attempt, system order. Both come from
    one stable sort of the rows' flat cell indices.
    """
    hits = table.scores.min(axis=1) > _taus(table, thresholds)[table.frs]
    attempts, attempt_pos = np.unique(table.attempt, return_inverse=True)
    types, morphs, systems = table.morph_types, table.morph_ids, table.frs_ids
    # one table row per (type, morph) present, in type then morph order
    pairs, row = np.unique(table.morph_type * np.int64(len(morphs)) + table.morph,
                           return_inverse=True)
    cells = (row * len(attempts) + attempt_pos) * len(systems) + table.frs
    order = np.argsort(cells, kind="stable")
    ordered = cells[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        i = repeats.min()
        raise RaggedDataError(
            f"duplicate cell: type={types[table.morph_type[i]]!r} "
            f"morph={morphs[table.morph[i]]!r} "
            f"attempt={int(table.attempt[i])} frs={systems[table.frs[i]]!r}"
        )
    shape = (len(pairs), len(attempts), len(systems))
    if len(cells) < math.prod(shape):
        gaps = np.flatnonzero(ordered != np.arange(len(ordered)))
        j, i, k = np.unravel_index(gaps[0] if gaps.size else len(ordered), shape)
        d, m = divmod(int(pairs[j]), len(morphs))
        raise RaggedDataError(
            f"missing cell: type={types[d]!r} morph={morphs[m]!r} "
            f"attempt={int(attempts[i])} frs={systems[k]!r}"
        )
    success = np.empty(shape)
    success.reshape(-1)[cells] = hits
    rows_per_type = np.bincount(pairs // len(morphs), minlength=len(types))
    return attempts.tolist(), list(systems), np.split(success, np.cumsum(rows_per_type)[:-1])


def _percent(tables, attempts, systems, ftar: FtarTable | None = None) -> float:
    """100 × the mean over types of the mean over (morph, attempt) cells of
    the worst system's success × (1 - failure-to-acquire)."""
    ftar = ftar if ftar is not None else FtarTable()
    kept = np.array([[1.0 - ftar.get(a, f) for f in systems] for a in attempts])
    return 100.0 * float(np.mean([float((t * kept).min(axis=2).mean()) for t in tables]))


def gmap(table: ScoreTable, thresholds, ftar: FtarTable | None = None) -> float:
    """Generalized attack-potential percentage over the full score table.

    Every (attempt, morph) cell is scored with the worst case across
    recognition systems of success * (1 - failure-to-acquire); cell scores
    are averaged per generation type, and the per-type averages are
    averaged. Requires a rectangular table: every morph must be scored for
    every attempt under every system, otherwise RaggedDataError is raised.
    """
    attempts, systems, tables = _success_tables(table, thresholds)
    return _percent(tables, attempts, systems, ftar)


def gmap_ma(table: ScoreTable, threshold: FrsThreshold) -> float:
    """Single-system attack potential with failure-to-acquire ignored.

    Expects rows from one system and one generation type; equals the
    general metric restricted accordingly.
    """
    if len(table.morph_types) > 1:
        raise ValueError(f"expected a single morph type, got {list(table.morph_types)}")
    return gmap(table, [threshold], FtarTable())


def gmap_mamf(table: ScoreTable, thresholds, ftar: FtarTable | None = None) -> float:
    """Worst-case-across-systems attack potential for one generation type.

    Each (attempt, morph) cell takes the minimum over systems of
    success * (1 - failure-to-acquire) before averaging.
    """
    if len(table.frs_ids) < 2:
        raise ValueError("the cross-system metric needs at least two systems")
    if len(table.morph_types) > 1:
        raise ValueError(f"expected a single morph type, got {list(table.morph_types)}")
    return gmap(table, thresholds, ftar)


def _quadrants(table: ScoreTable, taus: np.ndarray) -> np.ndarray:
    """Index into QUADRANTS of each row's two scores against its system's
    threshold, as quadrant_classify gives it."""
    tau = taus[table.frs]
    return np.take(_QUADRANT_INDEX, (table.scores[:, 0] > tau) + 2 * (table.scores[:, 1] > tau))


def quadrant_counts(table: ScoreTable, thresholds) -> dict:
    """Per system (in sorted order), how many rows fall in each quadrant."""
    quadrant = _quadrants(table, _taus(table, thresholds))
    counts = np.bincount(table.frs * 4 + quadrant, minlength=4 * len(table.frs_ids))
    return {frs_id: dict(zip(QUADRANTS, row))
            for frs_id, row in zip(table.frs_ids, counts.reshape(-1, 4).tolist())}


def build_report(table: ScoreTable, thresholds, ftar: FtarTable | None = None) -> GmapReport:
    """Assemble per-system values, the cross-system value, and quadrant
    counts of ``table`` into one report.

    Per-system values ignore failure-to-acquire by definition; the
    cross-system value honours the supplied table. ``n_morphs`` counts the
    (type, morph) rows of the success table.
    """
    attempts, systems, tables = _success_tables(table, thresholds)
    per_frs = {
        frs_id: _percent([t[:, :, [k]] for t in tables], attempts, [frs_id])
        for k, frs_id in enumerate(systems)
    }
    cross = _percent(tables, attempts, systems, ftar)
    return GmapReport(
        per_frs=per_frs,
        cross_frs=cross,
        quadrant_counts=quadrant_counts(table, thresholds),
        n_morphs=sum(len(t) for t in tables),
        n_attempts=len(attempts),
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

SCORES_COLUMNS = ("morph_id", "morph_type", "frs_id", "attempt", "score_s1", "score_s2")
NONMATED_COLUMNS = ("frs_id", "score")
FTAR_COLUMNS = ("frs_id", "attempt", "ftar")
SCATTER_CHUNK = 4096  # rows formatted at a time by write_scatter_csv


def read_csv_rows(path, columns, parse, optional=()):
    """Yield ``parse(*fields)`` for each row of a CSV file: the row's values
    of ``columns``, then of ``optional``, at the positions its header gives
    (a repeated name's last), and None for an optional column that the
    header or the row lacks. A header lacking any of ``columns`` raises one
    ValueError naming them all. Then, row by row: a blank row is skipped;
    more fields than the header, too few to reach one of ``columns`` (the
    first is named), or a TypeError or ValueError from ``parse`` raise
    ``"{path}: row {n}: {exc}"``, n the line the row ends on (header: 1).
    The file is read as UTF-8, after a byte-order mark if it starts with
    one; bytes that are not UTF-8 raise ``"{path}: {exc}"``."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            if missing := [c for c in columns if c not in header]:
                raise ValueError(f"{path}: missing columns {missing}; found {header}")
            at = {name: i for i, name in enumerate(header)}
            positions = [at.get(c, len(header)) for c in (*columns, *optional)]
            reach, end = 1 + max(positions[: len(columns)]), 1 + max(positions)
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) > len(header):
                        raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                    if len(row) < reach:
                        short = next(c for c in columns if at[c] >= len(row))
                        raise ValueError(f"no value for column {short!r}")
                    row += [None] * (end - len(row))
                    item = parse(*map(row.__getitem__, positions))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: row {reader.line_num}: {exc}") from exc
                yield item
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_csv_rows(path, header, rows) -> None:
    """Write ``header``, then each of the iterable ``rows`` as it comes."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _attempt(value) -> int:
    """An attempt index written in base 10, as text or a value whose str is
    that text (so 1.5 and True are rejected as "1.5" and "True" are), from 1
    to 2**63 - 1."""
    attempt = int(str(value))
    if attempt < 1:
        raise ValueError(f"attempt {attempt} must be >= 1")
    if attempt >= 2**63:
        raise ValueError(f"attempt {attempt} does not fit in 64 bits")
    return attempt


def _score_row(morph_id, morph_type, frs_id, attempt, s1, s2) -> tuple:
    attempt = _attempt(attempt)
    scores = (float(s1), float(s2))
    if not (math.isfinite(scores[0]) and math.isfinite(scores[1])):
        raise ValueError("subject scores must be finite")
    return morph_id, morph_type, frs_id, attempt, scores


def _sized_score_row(n, *fields) -> tuple:
    if len(fields) != len(SCORES_COLUMNS):
        raise ValueError(f"row {n} has {len(fields)} fields, not {len(SCORES_COLUMNS)}")
    return _score_row(*fields)


def read_scores_csv(path) -> ScoreTable:
    """Read `morph_id,morph_type,frs_id,attempt,score_s1,score_s2` rows,
    streamed into a ScoreTable."""
    table = ScoreTable._from_rows(read_csv_rows(path, SCORES_COLUMNS, _score_row))
    if not len(table):
        raise EmptyScoresError(f"{path}: no score rows")
    return table


def _nonmated_row(frs_id, text) -> tuple[str, float]:
    score = float(text)
    if not math.isfinite(score):
        raise ValueError(f"non-mated score {text!r} must be finite")
    return frs_id, score


def read_nonmated_csv(path) -> dict:
    """Read `frs_id,score` rows into per-system score lists."""
    scores: dict[str, list[float]] = {}
    for frs_id, score in read_csv_rows(path, NONMATED_COLUMNS, _nonmated_row):
        scores.setdefault(frs_id, []).append(score)
    if not scores:
        raise EmptyScoresError(f"{path}: no non-mated rows")
    return scores


def _ftar_entry(frs_id, attempt, rate) -> tuple:
    """``((attempt, frs_id), rate)`` of one failure-to-acquire entry: the
    attempt as a score row takes it, the rate in [0, 1]."""
    key, value = (_attempt(attempt), str(frs_id)), float(rate)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"FTAR {rate!r} for frs_id {frs_id!r} must lie in [0, 1]")
    return key, value


def read_ftar_csv(path) -> FtarTable:
    """Read `frs_id,attempt,ftar` rows into a failure-to-acquire table; a
    second row for the same system and attempt is an error."""
    rates = {}

    def add(frs_id, attempt, text) -> None:
        key, rate = _ftar_entry(frs_id, attempt, text)
        if key in rates:
            raise ValueError(f"duplicate row for frs_id {frs_id!r}, attempt {key[0]}")
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


def write_scatter_csv(table: ScoreTable, thresholds, path) -> None:
    """Write plot-ready `morph_id,frs_id,attempt,score_s1,score_s2,quadrant`
    rows, one per row of ``table``, in input order.

    Every row is classified before the file is opened, so a row without a
    threshold raises and leaves no file behind.
    """
    quadrant = _quadrants(table, _taus(table, thresholds))

    def rows():
        for lo in range(0, len(table), SCATTER_CHUNK):
            part = slice(lo, lo + SCATTER_CHUNK)
            yield from zip(
                map(table.morph_ids.__getitem__, table.morph[part].tolist()),
                map(table.frs_ids.__getitem__, table.frs[part].tolist()),
                table.attempt[part].tolist(),
                map(repr, table.scores[part, 0].tolist()),
                map(repr, table.scores[part, 1].tolist()),
                map(QUADRANTS.__getitem__, quadrant[part].tolist()),
            )

    write_csv_rows(path, ["morph_id", "frs_id", "attempt", "score_s1", "score_s2", "quadrant"],
                   rows())
