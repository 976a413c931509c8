"""Register a deformed, rigidly moved copy of a synthetic cloud back onto it."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from cloudmorph import PointCloud, RegistrationParams, register, save_ply

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

rng = np.random.default_rng(0)

# a unit-scale blob of 400 colored points
pts = rng.normal(size=(400, 3))
pts = (pts - pts.mean(axis=0)) / np.sqrt(np.mean(np.sum(pts**2, axis=1)))
colors = rng.uniform(size=(400, 3))
source = PointCloud(pts, colors, "source")

# target = source + smooth bump, then rotated 20 degrees and shifted
bump_center = pts[17]
bump = np.exp(-np.sum((pts - bump_center) ** 2, axis=1) / (2 * 0.6**2))
deformed = pts + 0.08 * bump[:, None] * np.array([0.0, 0.0, 1.0])
rot = Rotation.from_euler("y", 20, degrees=True).as_matrix()
target_pts = deformed @ rot.T + np.array([0.4, -0.1, 0.2])
target = PointCloud(target_pts, colors, "target")

pre_rms = np.sqrt(np.mean(np.sum((pts - target_pts) ** 2, axis=1)))
print(f"cloud size: {len(source)} points, RMS offset before registration: {pre_rms:.3f}")

result = register(source, target, RegistrationParams())
print(f"converged: {result.converged} after {result.iterations} iterations")
print("residual variance trajectory (every 5th):")
for i, s2 in enumerate(result.sigma2_history):
    if i % 5 == 0 or i == len(result.sigma2_history) - 1:
        print(f"  iter {i:3d}: {s2:.3e}")

tr = result.transform
print(f"recovered scale: {tr.scale:.4f}")
print(f"recovered rotation angle: {np.degrees(np.arccos((np.trace(tr.rotation) - 1) / 2)):.2f} deg")
print(f"non-rigid displacement |v|_inf: {np.abs(result.displacement).max():.4f}")

aligned = result.aligned_source()
post_rms = np.sqrt(np.mean(np.sum((aligned.vertices - target_pts) ** 2, axis=1)))
print(f"RMS offset after registration: {post_rms:.5f}")

save_ply(source, out_dir / "reg_source.ply")
save_ply(target, out_dir / "reg_target.ply")
save_ply(aligned, out_dir / "reg_aligned.ply")
print(f"wrote reg_source.ply / reg_target.ply / reg_aligned.ply to {out_dir}")
