"""Synthetic datasets and stub backends for smoke tests and demos.

Real experiments need genuine pretrained weight bundles and the benchmark
datasets; everything here exists so the whole pipeline can be exercised
at desk scale: small random trunks ending in the standard 512 channels,
and tiny colour-separable datasets written as PPM files.
"""

from __future__ import annotations

import os

import numpy as np

from .datasets import DatasetManifest, scan_dataset
from .engine import POOL
from .imageio import write_ppm
from .pipeline import FEATURE_DIM, Backend
from .weights import random_bundle


def stub_spec(mid_channels: int = 8) -> tuple:
    """A 2-conv trunk that still maps 3x224x224 to 512x7x7, as the layer
    list (mid_channels, POOL, POOL, POOL, POOL, 512, POOL).

    The second conv runs after four poolings (14x14 maps), so forwards stay
    cheap even with the standard 512 output channels.
    """
    return (mid_channels, POOL, POOL, POOL, POOL, FEATURE_DIM, POOL)


def stub_backend_pair(seed: int = 0) -> tuple[Backend, Backend]:
    """(object, scene) backends sharing the stub spec but with different weights."""
    spec = stub_spec()
    return (
        Backend(kind="object", spec=spec, weights=random_bundle(spec, seed=seed)),
        Backend(kind="scene", spec=spec, weights=random_bundle(spec, seed=seed + 1)),
    )


# well-separated base colours: RGB cube corners, grayish ones last
_PALETTE = (
    (220, 40, 40), (40, 200, 60), (50, 80, 220), (230, 210, 40),
    (200, 50, 200), (40, 210, 210), (240, 140, 30), (120, 60, 180),
)
_NOISE = 10.0  # standard deviation of the pixel noise, in intensity units


def make_synthetic_dataset(
    root: str,
    classes: int = 3,
    per_class: int = 30,
    size: tuple[int, int] = (64, 64),
    seed: int = 0,
) -> DatasetManifest:
    """Write a colour-separable PPM dataset and return its manifest.

    Each class gets a distinct base colour; images are that colour plus
    mild Gaussian pixel noise, which keeps classes linearly separable in
    any reasonable feature space.
    """
    if classes < 2 or classes > len(_PALETTE):
        raise ValueError(f"classes must be in 2..{len(_PALETTE)}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    height, width = size
    for k in range(classes):
        class_dir = os.path.join(root, f"class_{k:02d}")
        os.makedirs(class_dir, exist_ok=True)
        base = np.asarray(_PALETTE[k], dtype=np.float32)
        for i in range(per_class):
            img = base[None, None, :] + rng.normal(0.0, _NOISE, size=(height, width, 3))
            write_ppm(os.path.join(class_dir, f"img_{i:03d}.ppm"),
                      np.clip(img, 0, 255))
    return scan_dataset(root)
