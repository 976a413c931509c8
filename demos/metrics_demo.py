"""Score a synthetic morph set against three mock recognition systems."""

from pathlib import Path

import numpy as np

from cloudmorph import (
    FtarTable,
    ScoreTable,
    build_report,
    threshold_at_fmr,
    write_report_csv,
    write_scatter_csv,
)

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

rng = np.random.default_rng(7)
systems = ["resnet_mock", "incept_mock", "led_mock"]

# non-mated (impostor) scores per system set the decision thresholds
nonmated = {frs: rng.normal(0.25, 0.08, size=4000) for frs in systems}
thresholds = [
    threshold_at_fmr(nonmated[frs], 0.001, frs_id=frs) for frs in systems
]
for th in thresholds:
    print(f"{th.frs_id}: threshold at FMR 0.1% = {th.tau:.4f}"
          + (" (saturated)" if th.saturated else ""))

# morph scores: both contributing subjects score high against good morphs,
# while a weak tail of morphs drops one or both subjects below threshold;
# one row per (morph, attempt, system), in the score CSV's column order
rows = []
for j in range(40):
    quality = rng.uniform(0.2, 1.0)  # per-morph attack quality
    for attempt in (1, 2):
        wobble = rng.normal(0.0, 0.02)
        for frs in systems:
            s1 = float(np.clip(rng.normal(0.42 + 0.35 * quality + wobble, 0.06), 0, 1))
            s2 = float(np.clip(rng.normal(0.42 + 0.35 * quality + wobble, 0.06), 0, 1))
            rows.append((f"morph{j:02d}", "default", frs, attempt, s1, s2))
table = ScoreTable.from_rows(rows)

ftar = FtarTable({(2, frs): 0.02 for frs in systems})  # second attempts acquire worse

report = build_report(table, thresholds, ftar)
print(f"\n{report.n_morphs} morphs x {report.n_attempts} attempts:")
for frs in systems:
    counts = report.quadrant_counts[frs]
    print(f"  {frs}: single-system attack potential {report.per_frs[frs]:6.2f}%  "
          f"quadrants I/II/III/IV = {counts['I']}/{counts['II']}/{counts['III']}/{counts['IV']}")
print(f"  worst case across systems: {report.cross_frs:.2f}%")

write_report_csv(report, out_dir / "metrics_report.csv")
write_scatter_csv(table, thresholds, out_dir / "metrics_quadrants.csv")
print(f"\nwrote metrics_report.csv and metrics_quadrants.csv to {out_dir}")
