"""Shared input builders: IHDP replicate files, IDX byte blobs, toy MNIST."""

import struct

import numpy as np

from catebounds.data import IHDP_COVARIATES, IHDP_TEST_ROWS, IHDP_TRAIN_ROWS


def write_ihdp_pair(directory, replicate, n_train=IHDP_TRAIN_ROWS,
                    n_test=IHDP_TEST_ROWS, header_extra=None, bad_a=False):
    rng = np.random.default_rng(replicate)
    for split, n in (("train", n_train), ("test", n_test)):
        header = [f"x{j + 1}" for j in range(IHDP_COVARIATES)] + ["a", "y"]
        if header_extra is None:
            header += ["mu0", "mu1"]
        lines = [",".join(header)]
        for i in range(n):
            x = rng.normal(size=IHDP_COVARIATES)
            a = 2 if (bad_a and i == 0) else int(rng.uniform() < 0.5)
            vals = [repr(float(v)) for v in x] + [str(a), repr(float(rng.normal()))]
            if header_extra is None:
                vals += [repr(float(rng.normal())), repr(float(rng.normal()))]
            lines.append(",".join(vals))
        path = directory / f"ihdp_{replicate:03d}_{split}.csv"
        path.write_text("\n".join(lines) + "\n")


def idx_images_bytes(images):
    n, rows, cols = images.shape
    head = struct.pack(">iiii", 0x00000803, n, rows, cols)
    return head + images.astype(np.uint8).tobytes()


def idx_labels_bytes(labels):
    return struct.pack(">ii", 0x00000801, len(labels)) + bytes(int(v) for v in labels)


def toy_mnist(n_per_class=8, seed=0):
    """Random images whose mean intensity varies within every class."""
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for c in range(10):
        base = rng.uniform(0.2, 0.8, size=n_per_class)
        images.append(rng.uniform(0, 1, size=(n_per_class, 784)) * base[:, None])
        labels.append(np.full(n_per_class, c))
    return np.concatenate(images), np.concatenate(labels)
