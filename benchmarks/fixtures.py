"""Seeded inputs for the benchmark, with their ground truth.

Every cloud is a face-like colored surface: a curved sheet with a nose bump
and a color ramp, parameterized by (u, v) in [-1, 1]^2. A point keeps its
(u, v) label, so the position it should land on after registration is known:

- a target is a known warp of the source surface (a smooth bump, then a
  similarity transform, then noise), sampled at fresh (u, v);
- batch subjects share the (u, v) parameterization, so subject a's point
  (u, v) corresponds to subject b's point (u, v).

Score tables are built from per-cell success flags, so the attack-potential
values the program must report are known before it runs.

Nothing here imports the program: the fixtures are written with numpy and
the standard library, and the expected answers are computed independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _bump(du: np.ndarray, dv: np.ndarray, width: float) -> np.ndarray:
    return np.exp(-(du * du + dv * dv) / (2 * width * width))


@dataclass(frozen=True)
class Face:
    """Identity of one face-like surface, in millimetres."""

    width: float = 70.0
    height: float = 90.0
    curvature: float = 30.0
    nose: float = 25.0
    nose_width: float = 0.14
    tint: tuple = (0.0, 0.0, 0.0)

    def surface(self, uv: np.ndarray) -> np.ndarray:
        u, v = uv[:, 0], uv[:, 1]
        depth = -self.curvature * (0.8 * u * u + 0.5 * v * v)
        depth += self.nose * _bump(u, (v + 0.1) / 1.6, self.nose_width)
        for side in (-1.0, 1.0):
            depth -= 0.4 * self.nose * _bump(u - 0.38 * side, v - 0.3, 0.15)
        depth += 0.25 * self.nose * _bump(u / 2.5, v + 0.55, 0.08)
        return np.column_stack([self.width * u, self.height * v, depth])

    def colors(self, uv: np.ndarray) -> np.ndarray:
        u, v = uv[:, 0], uv[:, 1]
        ramp = np.column_stack([0.55 + 0.25 * u, 0.45 + 0.2 * v, 0.4 - 0.1 * u * v])
        return np.clip(ramp + np.asarray(self.tint), 0.0, 1.0)


@dataclass(frozen=True)
class Warp:
    """Smooth bump along z, then p -> scale * R @ p + shift."""

    bump_center: np.ndarray
    bump_height: float
    bump_width: float
    scale: float
    rotation: np.ndarray
    shift: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        d2 = np.sum((points - self.bump_center) ** 2, axis=1)
        bumped = points.copy()
        bumped[:, 2] += self.bump_height * np.exp(-d2 / (2 * self.bump_width ** 2))
        return self.scale * bumped @ self.rotation.T + self.shift


@dataclass(frozen=True)
class Pair:
    """A source cloud, a target cloud, and where each source point belongs."""

    source: np.ndarray
    source_colors: np.ndarray
    target: np.ndarray
    target_colors: np.ndarray
    truth: np.ndarray  # (M, 3): the warped, noise-free position of each source point


def rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about ``axis`` by ``angle`` radians."""
    k = np.asarray(axis, dtype=np.float64)
    k = k / np.linalg.norm(k)
    cross = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * cross + (1 - math.cos(angle)) * cross @ cross


def _unit(vector: np.ndarray) -> np.ndarray:
    return vector / np.linalg.norm(vector)


NOISE = 0.3  # scan noise, in millimetres per axis


def sample_uv(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n, 2))


def warped_pair(rng: np.random.Generator, m: int, n: int) -> Pair:
    """Source of m points and a target of n points on a known warp of it.

    The warp has a fixed size (an 8 mm bump, a 15 degree rotation, 5% scale,
    a 25 mm shift) and a seeded direction, so seeds vary the instance, not
    the difficulty.
    """
    face = Face()
    warp = Warp(
        bump_center=np.array([rng.uniform(-30, 30), rng.uniform(-40, 40), 0.0]),
        bump_height=8.0,
        bump_width=20.0,
        scale=1.05,
        rotation=rotation([rng.uniform(-0.3, 0.3), 1.0, rng.uniform(-0.3, 0.3)], math.radians(15)),
        shift=25.0 * _unit(rng.normal(size=3)),
    )
    uv_s = sample_uv(rng, m)
    uv_t = sample_uv(rng, n)
    source = face.surface(uv_s)
    target = warp.apply(face.surface(uv_t)) + rng.normal(scale=NOISE, size=(n, 3))
    target_face = Face(tint=(0.15, -0.1, 0.1))
    return Pair(
        source=source,
        source_colors=face.colors(uv_s),
        target=target,
        target_colors=target_face.colors(uv_t),
        truth=warp.apply(source),
    )


@dataclass(frozen=True)
class Subject:
    """One stored scan of the batch: a face identity in a pose."""

    name: str
    face: Face
    pose: Warp
    uv: np.ndarray
    vertices: np.ndarray
    colors: np.ndarray

    def at(self, uv: np.ndarray) -> np.ndarray:
        """Noise-free position of parameter (u, v) on this subject."""
        return self.pose.apply(self.face.surface(uv))


def subjects(rng: np.random.Generator, count: int, points: int) -> list[Subject]:
    """Scans of ``count`` distinct faces, each in its own pose."""
    out = []
    for k in range(count):
        face = Face(
            width=70.0 * rng.uniform(0.92, 1.08),
            height=90.0 * rng.uniform(0.92, 1.08),
            curvature=30.0 * rng.uniform(0.85, 1.15),
            nose=25.0 * rng.uniform(0.8, 1.2),
            nose_width=0.14 * rng.uniform(0.85, 1.15),
            tint=tuple(rng.uniform(-0.12, 0.12, size=3)),
        )
        pose = Warp(
            bump_center=np.zeros(3),
            bump_height=0.0,
            bump_width=1.0,
            scale=1.0,
            rotation=rotation(rng.normal(size=3), math.radians(rng.uniform(3, 10))),
            shift=rng.uniform(-30, 30, size=3),
        )
        uv = sample_uv(rng, points)
        vertices = pose.apply(face.surface(uv)) + rng.normal(scale=NOISE, size=(points, 3))
        out.append(Subject(f"subject{k}", face, pose, uv, vertices, face.colors(uv)))
    return out


def write_ply(path: Path, vertices: np.ndarray, colors: np.ndarray) -> int:
    """Write an ASCII PLY with 8-bit colors; returns the byte count."""
    quant = np.clip(np.rint(colors * 255.0), 0, 255).astype(np.int64)
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    rows = "\n".join(
        f"{x:.6f} {y:.6f} {z:.6f} {r} {g} {b}"
        for (x, y, z), (r, g, b) in zip(vertices.tolist(), quant.tolist())
    )
    payload = (header + rows + "\n").encode("ascii")
    path.write_bytes(payload)
    return len(payload)


# ---------------------------------------------------------------------------
# Score tables
# ---------------------------------------------------------------------------

SYSTEMS = ("frs1", "frs2", "frs3", "frs4")
ATTEMPTS = 5
NONMATED_PER_SYSTEM = 20000
FMR = 0.001
# Non-mated scores are uniform below NONMATED_MAX, so a threshold at FMR
# 0.001 lies just under it, between FAIL_MAX and SUCCESS_MIN. A successful
# cell has both subject scores above SUCCESS_MIN; a failed one has at least
# one below FAIL_MAX. Each cell's outcome is therefore fixed by its flag.
NONMATED_MAX = 0.6
SUCCESS_MIN = 0.65
FAIL_MAX = 0.55


@dataclass(frozen=True)
class ScoreTable:
    """Generated scores, indexed [morph, attempt, system]."""

    s1: np.ndarray
    s2: np.ndarray
    success: np.ndarray
    nonmated: np.ndarray  # (systems, NONMATED_PER_SYSTEM)


def score_table(rng: np.random.Generator, morphs: int) -> ScoreTable:
    """Scores where a seeded, non-zero share of cells beats every threshold.

    Each morph has a strength; a cell succeeds when the strength plus a
    per-attempt, per-system jitter clears 0.75, which happens for about a
    quarter of the cells.
    """
    shape = (morphs, ATTEMPTS, len(SYSTEMS))
    strength = rng.uniform(size=(morphs, 1, 1))
    success = strength + rng.normal(scale=0.1, size=shape) > 0.75
    high1 = rng.uniform(SUCCESS_MIN, 1.0, size=shape)
    high2 = rng.uniform(SUCCESS_MIN, 1.0, size=shape)
    low1 = rng.uniform(0.0, FAIL_MAX, size=shape)
    low2 = rng.uniform(0.0, FAIL_MAX, size=shape)
    # A failed cell drops subject 1, subject 2 or both (quadrants II, IV, III).
    drop = rng.integers(0, 3, size=shape)
    s1 = np.where(success | (drop == 1), high1, low1)
    s2 = np.where(success | (drop == 0), high2, low2)
    nonmated = rng.uniform(0.0, NONMATED_MAX, size=(len(SYSTEMS), NONMATED_PER_SYSTEM))
    return ScoreTable(s1, s2, success, nonmated)


def write_scores(table: ScoreTable, scores_path: Path, nonmated_path: Path) -> None:
    morphs = table.s1.shape[0]
    lines = ["morph_id,morph_type,frs_id,attempt,score_s1,score_s2"]
    s1 = table.s1.tolist()
    s2 = table.s2.tolist()
    for m in range(morphs):
        for a in range(ATTEMPTS):
            for f, frs in enumerate(SYSTEMS):
                lines.append(f"m{m:05d},default,{frs},{a + 1},{s1[m][a][f]!r},{s2[m][a][f]!r}")
    scores_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = ["frs_id,score"]
    for f, frs in enumerate(SYSTEMS):
        rows.extend(f"{frs},{s!r}" for s in table.nonmated[f].tolist())
    nonmated_path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def expected_report(table: ScoreTable) -> dict:
    """G-MAP values and quadrant counts recomputed from the scores alone.

    Thresholds follow the definition: the smallest observed non-mated score
    whose exceedance rate is at most FMR. A cell counts when both subject
    scores are strictly above its system's threshold.
    """
    out = {}
    hits = np.empty(table.s1.shape, dtype=bool)
    for f, frs in enumerate(SYSTEMS):
        scores = np.sort(table.nonmated[f])
        n = scores.size
        uniq = np.unique(scores)
        at_or_above = n - np.searchsorted(scores, uniq, side="left")
        tau = float(uniq[np.argmax(at_or_above / n <= FMR)])
        a1 = table.s1[:, :, f] > tau
        a2 = table.s2[:, :, f] > tau
        hits[:, :, f] = a1 & a2
        out[frs] = {
            "gmap_ma": 100.0 * float(hits[:, :, f].mean()),
            "quadrants": [
                int((a1 & a2).sum()),
                int((~a1 & a2).sum()),
                int((~a1 & ~a2).sum()),
                int((a1 & ~a2).sum()),
            ],
        }
    out["MAMF"] = 100.0 * float(hits.min(axis=2).mean())
    out["designed_MAMF"] = 100.0 * float(table.success.min(axis=2).mean())
    return out
