"""Generate synthetic dual-pol scenes and eyeball the class contrast.

Writes grayscale previews of both bands plus a false-color composite for one
iceberg and one ship, then prints the scene statistic that separates the
classes (mean HH-HV gap: icebergs depress it, ships do not).

Run:  python demos/01_synthetic_scenes.py
"""

from pathlib import Path

import numpy as np

from sarberg.data import SynthConfig, synth_dataset
from sarberg.harness import write_composite_ppm, write_pgm

OUT = Path(__file__).parent / "output" / "01_scenes"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    sset = synth_dataset(SynthConfig(n_samples=200, iceberg_fraction=0.5, seed=7))
    print(f"generated {len(sset)} scenes, "
          f"{sum(s.label for s in sset)} icebergs / "
          f"{sum(1 for s in sset if s.label == 0)} ships")

    iceberg = next(s for s in sset if s.label == 1)
    ship = next(s for s in sset if s.label == 0)
    for name, s in (("iceberg", iceberg), ("ship", ship)):
        write_pgm(s.hh, OUT / f"{name}_hh.pgm")
        write_pgm(s.hv, OUT / f"{name}_hv.pgm")
        write_composite_ppm(s, OUT / f"{name}_composite.ppm")
        print(f"{name}: angle {s.inc_angle:.1f} deg, previews -> "
              f"{OUT / (name + '_*.pgm')}")

    gap = np.array([np.mean(s.hh - s.hv) for s in sset])
    labels = np.array([s.label for s in sset])
    print(f"\nmean HH-HV gap: icebergs {gap[labels == 1].mean():.2f} dB, "
          f"ships {gap[labels == 0].mean():.2f} dB")
    threshold = (gap[labels == 1].mean() + gap[labels == 0].mean()) / 2
    acc = np.mean((gap < threshold) == (labels == 1))
    print(f"single-threshold accuracy at {threshold:.2f} dB: {acc:.1%} "
          f"(the CNN has to beat this by reading shape and local contrast)")


if __name__ == "__main__":
    main()
