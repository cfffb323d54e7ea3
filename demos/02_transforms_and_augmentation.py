"""Tour of the deterministic transforms and the random augmentation policy.

Run:  python demos/02_transforms_and_augmentation.py
"""

from pathlib import Path

import numpy as np

from sarberg.data import SynthConfig, synth_dataset
from sarberg.harness import write_pgm
from sarberg.imageops import (
    AugmentationPolicy,
    augment_dataset,
    gaussian_smooth,
    laplacian,
    reflect,
    rotate,
    sample_augmentation,
    shift,
)

OUT = Path(__file__).parent / "output" / "02_transforms"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    scene = synth_dataset(SynthConfig(n_samples=4, iceberg_fraction=0.5, seed=3))[0]
    hh = scene.hh

    variants = {
        "original": hh,
        "rot90": rotate(hh, 90.0),
        "rot17": rotate(hh, 17.0),
        "reflect_h": reflect(hh, "horizontal"),
        "shift_5_3": shift(hh, 5, 3),
        "smooth": gaussian_smooth(hh, 1.5),
        "laplacian": laplacian(hh),
    }
    for name, image in variants.items():
        write_pgm(image, OUT / f"{name}.pgm")
    print(f"wrote {len(variants)} previews to {OUT}")

    # Group identities hold bitwise.
    four = hh
    for _ in range(4):
        four = rotate(four, 90.0)
    print("rotate(90)^4 == identity:", np.array_equal(four, hh))
    print("reflect^2    == identity:",
          np.array_equal(reflect(reflect(hh, "vertical"), "vertical"), hh))

    # The stochastic policy applies one shared draw to both bands.
    policy = AugmentationPolicy()
    out = sample_augmentation(scene, policy, np.random.default_rng(0))
    print(f"\naugmented copy '{out.id}': label/angle preserved "
          f"({out.label}, {out.inc_angle:.1f} deg)")

    small = synth_dataset(SynthConfig(n_samples=10, iceberg_fraction=0.5, seed=5))
    grown = augment_dataset(small, policy, multiplier=4, seed=1)
    print(f"augment_dataset: {len(small)} scenes -> {len(grown)} "
          f"({sum(s.label for s in grown)} icebergs, labels scale with the data)")


if __name__ == "__main__":
    main()
