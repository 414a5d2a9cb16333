"""Dataset generation and ingestion.

Three sources feed the pipeline: a 2-covariate synthetic benchmark with a
known effect surface, IHDP-style CSV replicates with oracle outcome means,
and HC-MNIST built from raw MNIST IDX files (785 observed covariates: the
image plus one binary confounder). All generators draw potential outcomes
with a shared noise term, so Y = A*Y1 + (1-A)*Y0 holds exactly and the
stored effect oracle is noiseless.
"""

from __future__ import annotations

import csv
import gzip
import math
import struct
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .nets import ROW_BLOCK
from .special import expit

__all__ = [
    "Dataset",
    "gen_synthetic",
    "synthetic_tau",
    "load_dataset_csv",
    "load_ihdp_csv",
    "IHDP_TRAIN_ROWS",
    "IHDP_TEST_ROWS",
    "IHDP_COVARIATES",
    "parse_idx",
    "HcMnistConfig",
    "HCMNIST_GAMMA_STAR",
    "HCMNIST_CLIP",
    "phi_from_images",
    "build_hcmnist",
    "write_table",
    "write_tables",
    "read_table",
]

IHDP_TRAIN_ROWS = 672
IHDP_TEST_ROWS = 75
IHDP_COVARIATES = 25

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801

_SPLIT_STREAM = {"train": 0, "test": 1}

# HC-MNIST's confounding strength: the odds ratio the hidden confounder U
# moves treatment by
HCMNIST_GAMMA_STAR = math.e
# standardized image intensities are clipped to +-HCMNIST_CLIP before they
# are mapped onto their class's bin
HCMNIST_CLIP = 1.4


@dataclass
class Dataset:
    """One split of an observational dataset, optionally with oracles.

    y0/y1 are potential outcomes (noisy for generated data, conditional
    means for IHDP files); tau_oracle is the noiseless effect used to score
    policies.
    """

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None
    tau_oracle: np.ndarray | None = None
    split: str = "train"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError("x must be 2-D (n, d_x)")
        n = len(self.x)
        if self.a.shape != (n,) or self.y.shape != (n,):
            raise ValueError("a and y must be 1-D with one row per x row")
        if not np.all((self.a == 0.0) | (self.a == 1.0)):
            raise ValueError("treatment column must be binary")
        for name in ("y0", "y1", "tau_oracle"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=np.float64)
                if v.shape != (n,):
                    raise ValueError(f"{name} must have shape ({n},)")
                setattr(self, name, v)
        if self.split not in _SPLIT_STREAM:
            raise ValueError("split must be 'train' or 'test'")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    def to_csv(self, path: str | Path) -> None:
        """x1..xd,a,y[,mu0,mu1] with full-precision floats."""
        columns = {f"x{j + 1}": self.x[:, j] for j in range(self.d_x)}
        columns["a"] = self.a.astype(np.int64)
        columns["y"] = self.y
        if self.y0 is not None and self.y1 is not None:
            columns["mu0"] = self.y0
            columns["mu1"] = self.y1
        write_table(path, columns)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        # the shortest string that parses back to the same double
        return repr(float(value))
    return str(value)


def _quoted(text: str) -> bool:
    """Whether csv's excel dialect quotes a field holding `text`: one with
    a comma, a double quote or a line break."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _quote(cell: str) -> str:
    """`cell` as csv's excel dialect writes it: when `_quoted`, in double
    quotes with each double quote doubled."""
    return '"' + cell.replace('"', '""') + '"' if _quoted(cell) else cell


def _cells(column: Sequence) -> list[str]:
    """A column's cells under the one cell rule, in one pass over it."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if isinstance(column, np.ndarray) and column.ndim == 1:
        # `_cell` on the values a 1-D float, int or bool array holds; none
        # of their strings needs quoting. float.__repr__ is repr without its
        # generic dispatch, about a third faster per float
        if column.dtype.kind == "f":
            return list(map(float.__repr__, values))
        if column.dtype.kind in "biu":
            return list(map(str, values))
    # `_cell` leaves a str as it is, and a decision column is all str
    cells = (list(values) if set(map(type, values)) <= {str}
             else list(map(_cell, values)))
    # one scan of the whole column finds whether any cell needs quoting
    return list(map(_quote, cells)) if _quoted("".join(cells)) else cells


# rows joined into one write: about as much text as the file's own buffer
# holds, and half the cost of writing each line on its own
_WRITE_ROWS = 64


def _write_rows(path: str | Path, header: Sequence[str],
                body: Sequence[list[str]]) -> None:
    lines = map(",".join, chain([list(map(_quote, header))],
                                zip(*body, strict=True)))
    if len(body) == 1:
        # csv writes a row of one empty field as "", not as a blank line
        lines = (line or '""' for line in lines)
    with Path(path).open("w", newline="") as fh:
        while block := list(islice(lines, _WRITE_ROWS)):
            fh.write("\r\n".join(block) + "\r\n")


def write_tables(tables: Sequence[tuple[str | Path, Mapping[str, Sequence]]]) -> None:
    """Write CSV tables, each `(path, columns)` as `write_table` describes.

    A column object that several tables hold is formatted once. Its cells
    are dropped after the last table that holds it, so no more cells are
    held at once than those of the table being written and of the columns
    a later table shares.
    """
    last = {id(c): t for t, (_, columns) in enumerate(tables)
            for c in columns.values()}
    formatted: dict[int, list[str]] = {}
    for t, (path, columns) in enumerate(tables):
        body = []
        for c in columns.values():
            if id(c) not in formatted:
                formatted[id(c)] = _cells(c)
            body.append(formatted[id(c)])
        _write_rows(path, list(columns), body)
        for c in columns.values():
            if last[id(c)] == t:
                formatted.pop(id(c), None)


def write_table(path: str | Path, columns: Mapping[str, Sequence]) -> None:
    """Write one CSV table: a header row, then one row per column entry.

    `columns` maps each header, in order, to its column. Every table the
    package writes goes through here or `write_tables`, under one cell
    rule: floats as `repr(float(v))`, None as an empty cell, anything else
    through `str`. A cell that holds a comma, a double quote or a line
    break is quoted as csv's excel dialect quotes it, and lines end in
    `\\r\\n`.
    """
    write_tables([(path, columns)])


def read_table(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows, as strings, of a CSV table such as `write_table` writes.

    Blank lines are skipped; an empty file or a row whose width differs
    from the header's is rejected.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: ragged rows (row {line} has {len(row)} "
                             f"cells, the header {len(header)})")
    return header, body


def _stream(seed: int, split: str) -> np.random.Generator:
    # disjoint child streams so train/test draws never overlap under one seed
    if split not in _SPLIT_STREAM:
        raise ValueError("split must be 'train' or 'test'")
    children = np.random.SeedSequence(seed).spawn(len(_SPLIT_STREAM))
    return np.random.default_rng(children[_SPLIT_STREAM[split]])


def synthetic_tau(x: np.ndarray) -> np.ndarray:
    """Closed-form effect surface of the synthetic generator.

    tau(x) = 2*x1 + 1 - 4*sin(2*x1)*cos(x2); equals 1 at the origin.
    """
    x = np.asarray(x, dtype=np.float64)
    x1, x2 = x[..., 0], x[..., 1]
    return 2.0 * x1 + 1.0 - 4.0 * np.sin(2.0 * x1) * np.cos(x2)


def gen_synthetic(n: int, seed: int, split: str = "train") -> Dataset:
    """Two observed covariates, confounded treatment, known effect surface.

    X1 ~ Unif(-2, 2), X2 ~ N(0, 1), A ~ Bern(sigmoid(0.75*X1 - X2 + 0.5)),
    Y = (2A-1)*X1 + A - 2*sin(2*(2A-1)*X1 + X2) - 2*X2*(1 + 0.5*X1) + eps.
    Both potential outcomes reuse the same eps draw, so y1 - y0 is noiseless.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = _stream(seed, split)
    x1 = rng.uniform(-2.0, 2.0, size=n)
    x2 = rng.standard_normal(n)
    a = (rng.uniform(size=n) < expit(0.75 * x1 - x2 + 0.5)).astype(np.float64)
    eps = rng.standard_normal(n)
    base = -2.0 * x2 * (1.0 + 0.5 * x1)
    y1 = x1 + 1.0 - 2.0 * np.sin(2.0 * x1 + x2) + base + eps
    y0 = -x1 - 2.0 * np.sin(-2.0 * x1 + x2) + base + eps
    y = np.where(a == 1.0, y1, y0)
    x = np.column_stack([x1, x2])
    return Dataset(x=x, a=a, y=y, y0=y0, y1=y1,
                   tau_oracle=y1 - y0, split=split)


def load_dataset_csv(path: str | Path, split: str = "train") -> Dataset:
    """Inverse of Dataset.to_csv for any covariate dimension."""
    header, rows = read_table(path)
    has_mu = header[-2:] == ["mu0", "mu1"]
    d = len(header) - 2 - (2 if has_mu else 0)
    expected = [f"x{j + 1}" for j in range(d)] + ["a", "y"]
    if has_mu:
        expected += ["mu0", "mu1"]
    if header != expected or d < 1:
        raise ValueError(f"{path}: header does not match x1..xd,a,y[,mu0,mu1]")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    x, a, y = data[:, :d], data[:, d], data[:, d + 1]
    y0 = data[:, d + 2] if has_mu else None
    y1 = data[:, d + 3] if has_mu else None
    tau = y1 - y0 if has_mu else None
    return Dataset(x=x, a=a, y=y, y0=y0, y1=y1, tau_oracle=tau, split=split)


def _read_ihdp_file(path: Path, split: str, expected_rows: int) -> Dataset:
    data = load_dataset_csv(path, split)
    if data.tau_oracle is None:
        raise ValueError(f"{path}: no oracle; evaluation-only metrics disabled")
    if data.d_x != IHDP_COVARIATES:
        raise ValueError(f"{path}: expected {IHDP_COVARIATES} covariates, "
                         f"got {data.d_x}")
    if data.n != expected_rows:
        raise ValueError(
            f"{path}: expected {expected_rows} rows for the {split} split, "
            f"got {data.n}")
    return data


def load_ihdp_csv(directory: str | Path, replicate: int) -> tuple[Dataset, Dataset]:
    """Load one of the 100 IHDP train/test replicates.

    Expects `ihdp_{r:03d}_train.csv` and `ihdp_{r:03d}_test.csv` under
    `directory` with header x1..x25,a,y,mu0,mu1 and 672/75 rows. mu0/mu1 are
    the oracle outcome means.
    """
    if not 1 <= int(replicate) <= 100:
        raise ValueError("replicate must lie in [1, 100]")
    directory = Path(directory)
    train = _read_ihdp_file(
        directory / f"ihdp_{replicate:03d}_train.csv", "train", IHDP_TRAIN_ROWS)
    test = _read_ihdp_file(
        directory / f"ihdp_{replicate:03d}_test.csv", "test", IHDP_TEST_ROWS)
    return train, test


def parse_idx(path: str | Path) -> np.ndarray:
    """Parse one IDX file (optionally gzipped) into a numpy array.

    Image files (magic 0x00000803) yield the pixels themselves: a read-only
    (n, rows*cols) uint8 view of the file's bytes, with no float copy;
    `build_hcmnist` writes them, divided by 255, into its covariates. Label
    files (magic 0x00000801) yield (n,) integer labels in 0..9. Truncated
    files are rejected outright — never a partial dataset.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated IDX file")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic == _IDX_IMAGES_MAGIC:
        if len(raw) < 16:
            raise ValueError(f"{path}: truncated IDX file")
        n, rows, cols = struct.unpack(">iii", raw[4:16])
        if len(raw) < 16 + n * rows * cols:
            raise ValueError(f"{path}: truncated IDX file")
        pixels = np.frombuffer(raw, dtype=np.uint8, count=n * rows * cols,
                               offset=16)
        return pixels.reshape(n, rows * cols)
    if magic == _IDX_LABELS_MAGIC:
        n = struct.unpack(">i", raw[4:8])[0]
        if len(raw) < 8 + n:
            raise ValueError(f"{path}: truncated IDX file")
        labels = np.frombuffer(raw[8:8 + n], dtype=np.uint8).astype(np.int64)
        if labels.size and labels.max() > 9:
            raise ValueError(f"{path}: label outside 0..9")
        return labels
    raise ValueError(f"{path}: bad IDX magic {magic:#010x}")


def _check_images(who: str, pixels: np.ndarray,
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`pixels` and `labels` as arrays, checked to be an image set: (n, p)
    uint8 pixels, as `parse_idx` returns them, and n integer labels in
    0..9. Anything else raises ValueError naming `who`; float images would
    otherwise be divided by 255 a second time."""
    pixels, labels = np.asarray(pixels), np.asarray(labels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ValueError(f"{who}: pixels must be a 2-D uint8 array, got "
                         f"{pixels.ndim}-D {pixels.dtype}")
    if labels.shape != (len(pixels),):
        raise ValueError(f"{who}: labels of shape {labels.shape} do not align "
                         f"with {len(pixels)} images")
    if labels.size and (not np.issubdtype(labels.dtype, np.integer)
                        or labels.min() < 0 or labels.max() > 9):
        raise ValueError(f"{who}: labels must be integers in 0..9")
    return pixels, labels


def _intensity(pixels: np.ndarray) -> np.ndarray:
    """Mean intensity of each image, `(pixels / 255.0).mean(axis=1)`, over
    row blocks of ROW_BLOCK: a row's mean has the same bits, and the float
    temporary is one block."""
    out = np.empty(len(pixels))
    for lo in range(0, len(pixels), ROW_BLOCK):
        out[lo:lo + ROW_BLOCK] = (pixels[lo:lo + ROW_BLOCK] / 255.0).mean(axis=1)
    return out


@dataclass(frozen=True)
class HcMnistConfig:
    """Per-class intensity statistics of the training images."""

    class_means: tuple[float, ...]
    class_stds: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.class_means) != 10 or len(self.class_stds) != 10:
            raise ValueError("need statistics for all 10 classes")
        if not all(s > 0.0 for s in self.class_stds):  # NaN too
            raise ValueError("class intensity stds must be positive")

    @classmethod
    def from_data(cls, pixels: np.ndarray, labels: np.ndarray) -> "HcMnistConfig":
        pixels, labels = _check_images("HcMnistConfig.from_data", pixels, labels)
        intensity = _intensity(pixels)
        means, stds = [], []
        for c in range(10):
            mask = labels == c
            if not np.any(mask):
                raise ValueError(f"class {c} missing; cannot compute statistics")
            means.append(float(intensity[mask].mean()))
            stds.append(float(intensity[mask].std()))
        return cls(class_means=tuple(means), class_stds=tuple(stds))


def _class_range(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Min_c = -2 + 0.4*c, Max_c = Min_c + 0.4: ten disjoint bins tiling [-2, 2]
    lo = -2.0 + 0.4 * labels.astype(np.float64)
    return lo, lo + 0.4


def phi_from_images(pixels: np.ndarray, labels: np.ndarray,
                    config: HcMnistConfig) -> np.ndarray:
    """One-dimensional image summary: standardized mean intensity, clipped,
    mapped affinely onto the class-specific bin [Min_c, Max_c]."""
    pixels, labels = _check_images("phi_from_images", pixels, labels)
    intensity = _intensity(pixels)
    mu = np.asarray(config.class_means)[labels]
    sd = np.asarray(config.class_stds)[labels]
    z = np.clip((intensity - mu) / sd, -HCMNIST_CLIP, HCMNIST_CLIP)
    lo, hi = _class_range(labels)
    return lo + (z + HCMNIST_CLIP) * (hi - lo) / (2.0 * HCMNIST_CLIP)


def _alpha_beta(phi: np.ndarray, gamma_star: float) -> tuple[np.ndarray, np.ndarray]:
    # both >= 1 on phi in [-2, 2] when gamma_star >= 1, so 1/alpha, 1/beta
    # are valid probabilities
    s = expit(0.75 * phi + 0.5)
    alpha = 1.0 / (gamma_star * s) + 1.0 - 1.0 / gamma_star
    beta = gamma_star / s + 1.0 - gamma_star
    return alpha, beta


def build_hcmnist(pixels: np.ndarray, labels: np.ndarray, seed: int,
                  config: HcMnistConfig, split: str = "train") -> Dataset:
    """Semi-synthetic treatment/outcome mechanism on top of MNIST images.

    The treatment depends on the scalar image summary phi and a binary
    confounder U (kept observed: appended as the 785th covariate). Outcome
    means are (2A-1)*phi + (2A-1) - 2*sin(2*(2A-1)*phi) - 2*(2U-1)*(1+0.5*phi)
    with unit Gaussian noise shared across arms. `config` holds the training
    images' statistics (`HcMnistConfig.from_data`), for either split.

    `pixels` are uint8, as `parse_idx` returns them. They are divided by 255
    straight into the (n, d + 1) covariate matrix, the one float copy of
    the images.
    """
    pixels, labels = _check_images("build_hcmnist", pixels, labels)
    rng = _stream(seed, split)
    n, d = pixels.shape
    u = (rng.uniform(size=n) < 0.5).astype(np.float64)
    phi = phi_from_images(pixels, labels, config)
    alpha, beta = _alpha_beta(phi, HCMNIST_GAMMA_STAR)
    p_treat = u / alpha + (1.0 - u) / beta
    a = (rng.uniform(size=n) < p_treat).astype(np.float64)
    lean = -2.0 * (2.0 * u - 1.0) * (1.0 + 0.5 * phi)
    m1 = phi + 1.0 - 2.0 * np.sin(2.0 * phi) + lean
    m0 = -phi - 1.0 + 2.0 * np.sin(2.0 * phi) + lean
    eps = rng.standard_normal(n)
    y1 = m1 + eps
    y0 = m0 + eps
    y = np.where(a == 1.0, y1, y0)
    x = np.empty((n, d + 1))
    np.divide(pixels, 255.0, out=x[:, :d])
    x[:, d] = u
    return Dataset(x=x, a=a, y=y, y0=y0, y1=y1,
                   tau_oracle=m1 - m0, split=split)
