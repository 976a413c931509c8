"""Blend two synthetic colored 'face' clouds into morphs at several weights."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from pathlib import Path

import numpy as np

from cloudmorph import PointCloud, morph_registration, register, save_ply

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)


def synthetic_face(seed, nose_height, width, tint):
    """Half-ellipsoid point sheet with a nose-like bump and a color ramp."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=600)
    v = rng.uniform(-1.3, 1.3, size=600)
    mask = u**2 + (v / 1.3) ** 2 <= 1.0
    u, v = u[mask], v[mask]
    depth = 0.6 * np.sqrt(np.clip(1.0 - u**2 - (v / 1.3) ** 2, 0.0, None))
    nose = nose_height * np.exp(-(u**2 + (v + 0.1) ** 2) / 0.02)
    pts = np.column_stack([width * u * 90.0, v * 110.0, (depth + nose) * 80.0])
    shade = 0.55 + 0.3 * (depth / depth.max())
    colors = np.clip(np.column_stack([shade * tint[0], shade * tint[1], shade * tint[2]]), 0, 1)
    return PointCloud(pts, colors, f"face{seed}")


subject_a = synthetic_face(1, nose_height=0.35, width=1.00, tint=(1.00, 0.80, 0.65))
subject_b = synthetic_face(2, nose_height=0.20, width=0.85, tint=(0.70, 0.55, 0.45))
print(f"subject A: {len(subject_a)} points, subject B: {len(subject_b)} points")

result = register(subject_a, subject_b)
print(f"registration converged: {result.converged} in {result.iterations} iterations")

save_ply(result.aligned_source(), out_dir / "morph_aligned_a.ply")

# one registration serves every blend weight
for alpha in (0.25, 0.5, 0.75):
    blended = morph_registration(result, alpha)
    path = out_dir / f"{blended.id}.ply"
    save_ply(blended, path)
    print(f"alpha={alpha}: wrote {path.name} ({len(blended)} points)")

print(f"outputs in {out_dir}")
