"""The benchmark's workloads and the inputs each one generates from its seed.

Every workload is one `ExperimentConfig` run for one pipeline seed, with
`jobs = 1`. The benchmark seed picks the dataset seed and the pipeline seed,
and for `hcmnist-scale` it also picks the pixels and labels of the
MNIST-shaped IDX files written before set-up is timed. The sizes are cut from
the paper-scale defaults so that one seed takes a few seconds on a 2-core
machine; README.md gives the make-up of each workload and why.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from catebounds.runner import (DatasetSpec, ExperimentConfig, FlowParams,
                               PropensityParams, Stage0Params)
from catebounds.sensitivity import DELTA_PRESETS

# MNIST's image shape and its file names
IMAGE_SIDE = 28
IDX_FILES = {"train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")}
# tag that keeps the pixel stream apart from the program's own seed streams
_PIXEL_STREAM = 0x1D7
# images drawn per block, which bounds the float arrays drawn at once
_IMAGE_BLOCK = 2000


def _iterations(n_iter: int, flow_iter: int | None = None) -> dict:
    return {"stage0": Stage0Params(n_iter=n_iter),
            "prop_x": PropensityParams(n_iter=n_iter),
            "prop_phi": PropensityParams(n_iter=n_iter),
            "flow": FlowParams(n_iter=flow_iter or n_iter)}


@dataclass(frozen=True)
class Workload:
    name: str
    base: ExperimentConfig

    @property
    def synthetic(self) -> bool:
        return self.base.dataset.kind == "synthetic"

    def config(self, seed: int, out_dir: str, input_dir: str) -> ExperimentConfig:
        """The run's config. All paths are relative to the checkout root, so
        `results.json`, which echoes them, is the same in every checkout."""
        spec = replace(self.base.dataset, seed=seed,
                       path=None if self.synthetic else input_dir)
        return replace(self.base, dataset=spec, seeds=(seed,), jobs=1,
                       out_dir=out_dir)


_SYNTHETIC = DatasetSpec(kind="synthetic", n_train=1000, n_test=300)

WORKLOADS = {w.name: w for w in (
    Workload("synthetic-tarnet", ExperimentConfig(
        dataset=_SYNTHETIC, method="tarnet", d_phi=1, deltas=DELTA_PRESETS,
        k=2000, **_iterations(300))),
    Workload("synthetic-cfr-wass", ExperimentConfig(
        dataset=_SYNTHETIC, method="cfr", balancing_metric="wasserstein",
        balancing_alpha=1.0, d_phi=1, deltas=DELTA_PRESETS, k=2000,
        **_iterations(300))),
    Workload("hcmnist-scale", ExperimentConfig(
        dataset=DatasetSpec(kind="hcmnist", n_train=10_000, n_test=1_000),
        method="tarnet", d_phi=1, deltas=(DELTA_PRESETS[0], DELTA_PRESETS[-1]),
        k=100, **_iterations(30, flow_iter=200))),
)}


@dataclass
class MnistInputs:
    """The generated images (uint8, one row per image) and labels."""

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray


def _images(rng: np.random.Generator, n: int) -> np.ndarray:
    """MNIST-like uint8 images: mostly zero, with an ink level and an ink
    share drawn per image, so mean intensity varies inside every class."""
    out = np.empty((n, IMAGE_SIDE * IMAGE_SIDE), dtype=np.uint8)
    for lo in range(0, n, _IMAGE_BLOCK):
        hi = min(lo + _IMAGE_BLOCK, n)
        level = rng.uniform(0.3, 1.0, size=(hi - lo, 1))
        share = rng.uniform(0.1, 0.3, size=(hi - lo, 1))
        ink = rng.random((hi - lo, out.shape[1])) < share
        value = rng.random((hi - lo, out.shape[1])) * level * 255.0
        out[lo:hi] = np.where(ink, value, 0.0).astype(np.uint8)
    return out


def _labels(rng: np.random.Generator, n: int) -> np.ndarray:
    # every class appears, as the class statistics need
    return rng.permutation(np.arange(n) % 10).astype(np.uint8)


def _write_idx(path: Path, array: np.ndarray) -> None:
    if array.ndim == 2:
        head = struct.pack(">iiii", 0x00000803, len(array), IMAGE_SIDE, IMAGE_SIDE)
    else:
        head = struct.pack(">ii", 0x00000801, len(array))
    path.write_bytes(head + array.tobytes())


def write_mnist_inputs(directory: Path, seed: int,
                       rows: tuple[int, int]) -> MnistInputs:
    """Write the four IDX files for `seed`; the same seed gives the same bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _PIXEL_STREAM)))
    arrays = {}
    for split, n in zip(("train", "test"), rows):
        arrays[split] = (_images(rng, n), _labels(rng, n))
        for name, array in zip(IDX_FILES[split], arrays[split]):
            _write_idx(directory / name, array)
    return MnistInputs(*arrays["train"], *arrays["test"])
