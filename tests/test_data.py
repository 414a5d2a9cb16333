"""Dataset tests: generator mechanics, CSV schemas, IDX parsing, and the
HC-MNIST construction."""

import gzip
import re
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixture_files import (idx_images_bytes, idx_labels_bytes, toy_mnist,
                      write_ihdp_pair)
from numeric_oracles import (EDGE_FLOATS, build_hcmnist_float,
                             hcmnist_stats_float, parse_idx_float, phi_float,
                             write_table_per_cell)

from catebounds.data import (
    Dataset,
    HcMnistConfig,
    IHDP_COVARIATES,
    IHDP_TEST_ROWS,
    IHDP_TRAIN_ROWS,
    build_hcmnist,
    gen_synthetic,
    load_dataset_csv,
    load_ihdp_csv,
    parse_idx,
    phi_from_images,
    read_table,
    synthetic_tau,
    write_table,
    write_tables,
)
import catebounds.data as data_module
from catebounds.evaluation import Decision
from catebounds.nets import ROW_BLOCK

_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308]),
)
_CELLS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.none(), st.integers(-10**9, 10**9),
    st.sampled_from([d.value for d in Decision]),
)
# short strings built from the characters csv must quote
_TEXT = st.text(st.sampled_from(list('ab ,"\r\n\t')), max_size=4)


def _column(n_rows: int) -> st.SearchStrategy:
    """A table column of n_rows entries: a float, int or bool array, or a
    list mixing None, numbers and strings."""
    def values(strategy):
        return st.lists(strategy, min_size=n_rows, max_size=n_rows)

    return st.one_of(
        values(EDGE_FLOATS).map(np.array),
        values(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32)),
        values(st.integers(-2**63, 2**63 - 1)).map(
            lambda v: np.array(v, dtype=np.int64)),
        values(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        values(st.one_of(st.none(), EDGE_FLOATS, EDGE_FLOATS.map(np.float64),
                         st.integers(), st.booleans(), _TEXT)),
    )


class TestSynthetic:
    def test_covariate_ranges(self):
        d = gen_synthetic(5000, seed=0)
        assert np.all(d.x[:, 0] >= -2.0) and np.all(d.x[:, 0] <= 2.0)
        assert d.d_x == 2 and d.n == 5000

    def test_consistency_identity_exact(self):
        d = gen_synthetic(2000, seed=1)
        assert np.array_equal(d.y, d.a * d.y1 + (1.0 - d.a) * d.y0)

    def test_oracle_is_noiseless_closed_form(self):
        d = gen_synthetic(500, seed=2)
        # shared noise cancels in y1 - y0 up to rounding of the shared terms
        assert np.allclose(d.tau_oracle, synthetic_tau(d.x), atol=1e-10)

    def test_tau_at_origin_is_one(self):
        assert synthetic_tau(np.zeros((1, 2)))[0] == 1.0

    def test_same_seed_identical(self):
        d1 = gen_synthetic(100, seed=3)
        d2 = gen_synthetic(100, seed=3)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)

    def test_train_test_streams_disjoint(self):
        tr = gen_synthetic(100, seed=4, split="train")
        te = gen_synthetic(100, seed=4, split="test")
        assert not np.array_equal(tr.x, te.x)

    def test_treated_share_in_sanity_band(self):
        d = gen_synthetic(10_000, seed=5)
        assert 0.4 <= d.a.mean() <= 0.8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(10, seed=0, split="validation")

    def test_csv_round_trip_bitwise(self, tmp_path):
        d = gen_synthetic(50, seed=6)
        path = tmp_path / "synthetic.csv"
        d.to_csv(path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.x, d.x)
        assert np.array_equal(back.a, d.a)
        assert np.array_equal(back.y, d.y)
        assert np.array_equal(back.y0, d.y0)
        assert np.array_equal(back.tau_oracle, d.tau_oracle)


class TestDatasetValidation:
    def test_non_binary_treatment_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 1)), a=np.array([0.0, 2.0]), y=np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 1)), a=np.zeros(2), y=np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 1)), a=np.zeros(2), y=np.zeros(2),
                    tau_oracle=np.zeros(3))


class TestIhdp:
    def test_well_formed_replicate_loads(self, tmp_path):
        write_ihdp_pair(tmp_path, 7)
        train, test = load_ihdp_csv(tmp_path, 7)
        assert train.x.shape == (IHDP_TRAIN_ROWS, IHDP_COVARIATES)
        assert test.x.shape == (IHDP_TEST_ROWS, IHDP_COVARIATES)
        assert train.split == "train" and test.split == "test"
        assert train.y0 is not None and train.tau_oracle is not None
        assert np.array_equal(train.tau_oracle, train.y1 - train.y0)

    def test_replicate_range_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            load_ihdp_csv(tmp_path, 0)
        with pytest.raises(ValueError):
            load_ihdp_csv(tmp_path, 101)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ihdp_csv(tmp_path, 12)

    def test_wrong_row_count_rejected(self, tmp_path):
        write_ihdp_pair(tmp_path, 3, n_train=600)
        with pytest.raises(ValueError, match="600"):
            load_ihdp_csv(tmp_path, 3)

    def test_missing_mu_columns_disable_oracle(self, tmp_path):
        write_ihdp_pair(tmp_path, 4, header_extra="none")
        with pytest.raises(ValueError, match="no oracle"):
            load_ihdp_csv(tmp_path, 4)

    def test_non_binary_treatment_rejected(self, tmp_path):
        write_ihdp_pair(tmp_path, 5, bad_a=True)
        with pytest.raises(ValueError, match="binary"):
            load_ihdp_csv(tmp_path, 5)


class TestTable:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_rows=st.integers(0, 12), n_cols=st.integers(1, 5))
    def test_round_trip(self, tmp_path_factory, data, n_rows, n_cols):
        # a float array column, or a plain list of mixed cells
        columns = {}
        for j in range(n_cols):
            if data.draw(st.booleans()):
                col = np.array(data.draw(
                    st.lists(_FLOATS, min_size=n_rows, max_size=n_rows)))
            else:
                col = data.draw(st.lists(_CELLS, min_size=n_rows, max_size=n_rows))
            columns[f"c{j}"] = col
        path = tmp_path_factory.mktemp("table") / "t.csv"
        write_table(path, columns)
        header, rows = read_table(path)
        assert header == list(columns)
        assert len(rows) == n_rows
        for j, col in enumerate(columns.values()):
            for i, v in enumerate(col):
                cell = rows[i][j]
                if v is None:
                    assert cell == ""
                elif isinstance(v, (float, np.floating)):
                    assert not cell.startswith("np.")
                    assert (struct.pack("<d", float(cell))
                            == struct.pack("<d", float(v)))
                else:
                    assert cell == str(v)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_rows=st.integers(0, 6), n_cols=st.integers(1, 4))
    def test_bytes_match_the_per_cell_writer(self, tmp_path_factory, data,
                                             n_rows, n_cols):
        headers = data.draw(st.lists(_TEXT, min_size=n_cols, max_size=n_cols,
                                     unique=True))
        columns = {h: data.draw(_column(n_rows)) for h in headers}
        directory = tmp_path_factory.mktemp("table")
        write_table(directory / "got.csv", columns)
        write_table_per_cell(directory / "want.csv", columns)
        assert ((directory / "got.csv").read_bytes()
                == (directory / "want.csv").read_bytes())

    @pytest.mark.parametrize("columns", [
        {"a": [None, None, ""]},
        {"": [None, "x", None]},
        {"a": np.array([-0.0, np.nan])},
        {"a": []},
        {"a": np.array([], dtype=np.float64), "b": []},
        {"a": [None], "b": [None]},
        {"a": ["treat", "defer"], "b": ["x,y", 'q"']},
        {"a": [""]},
    ])
    def test_one_column_and_zero_row_tables_match(self, tmp_path, columns):
        # csv writes a lone empty field as "", so the row is not blank
        write_table(tmp_path / "got.csv", columns)
        write_table_per_cell(tmp_path / "want.csv", columns)
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_many_tables_match_one_call_each(self, tmp_path):
        ids, shared = np.arange(3), np.array([0.1, -0.0, 1e16])
        tables = [(tmp_path / "t0.csv", {"id": ids, "s": shared,
                                         "own": np.array([1.5, 2.0, 5e-324])}),
                  # `s` skips a table, and `own` is held twice by one table
                  (tmp_path / "t1.csv", {"id": ids, "own": [None, "a,b", 'q"'],
                                         "again": ["x", None, "\r\n"]}),
                  (tmp_path / "t2.csv", {"id": ids, "s": shared,
                                         "flag": np.array([True, False, True])})]
        tables[1][1]["again"] = tables[1][1]["own"]
        write_tables(tables)
        got = [path.read_bytes() for path, _ in tables]
        for path, columns in tables:
            write_table(path, columns)
        assert got == [path.read_bytes() for path, _ in tables]

    def test_shared_column_formatted_once_and_dropped_after_last_use(
            self, tmp_path, monkeypatch):
        class Cells(list):
            pass  # unlike a list, it can be referenced weakly

        formatted, live = [], []
        cells = data_module._cells
        write_rows = data_module._write_rows

        def counted(column):
            out = Cells(cells(column))
            formatted.append((id(column), weakref.ref(out)))
            return out

        def write_counting_live(path, header, body):
            live.append(sum(ref() is not None for _, ref in formatted))
            write_rows(path, header, body)

        monkeypatch.setattr(data_module, "_cells", counted)
        monkeypatch.setattr(data_module, "_write_rows", write_counting_live)
        ids, shared = np.arange(4), np.linspace(0.0, 1.0, 4)
        owns = list(np.arange(12.0).reshape(3, 4))
        write_tables([(tmp_path / f"t{t}.csv",
                       {"id": ids, "shared": shared, "own": own})
                      for t, own in enumerate(owns)])
        assert sorted(i for i, _ in formatted) == sorted(
            {id(ids), id(shared)} | {id(own) for own in owns})
        # no table holds more cells than its own three columns
        assert live == [3, 3, 3]
        assert all(ref() is None for _, ref in formatted)

    def test_empty_and_ragged_files_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty")):
            read_table(path)
        path.write_text("a,b\r\n1,2\r\n3\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ragged")):
            read_table(path)


class TestIdx:
    def test_images_parsed_as_read_only_pixels(self, tmp_path):
        imgs = np.arange(5 * 28 * 28, dtype=np.int64).reshape(5, 28, 28) % 256
        path = tmp_path / "imgs.idx"
        path.write_bytes(idx_images_bytes(imgs))
        out = parse_idx(path)
        assert out.shape == (5, 784) and out.dtype == np.uint8
        assert out[0, 128] == 128
        assert not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 1

    def test_images_equal_the_files_bytes(self, tmp_path):
        images, _ = toy_mnist(n_per_class=2, seed=4)
        path = tmp_path / "imgs.idx"
        path.write_bytes(idx_images_bytes(images.reshape(-1, 28, 28)))
        out = parse_idx(path)
        assert out.dtype == np.uint8
        assert out.tobytes() == path.read_bytes()[16:] == images.tobytes()

    def test_labels_parsed(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(idx_labels_bytes([0, 3, 9, 1]))
        out = parse_idx(path)
        assert out.tolist() == [0, 3, 9, 1]

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "labels.idx.gz"
        path.write_bytes(gzip.compress(idx_labels_bytes([5, 2])))
        assert parse_idx(path).tolist() == [5, 2]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">ii", 0x00000999, 1))
        with pytest.raises(ValueError, match="magic"):
            parse_idx(path)

    def test_truncated_rejected(self, tmp_path):
        full = idx_images_bytes(np.zeros((3, 4, 4), dtype=np.uint8))
        path = tmp_path / "short.idx"
        path.write_bytes(full[:-5])
        with pytest.raises(ValueError, match="truncated"):
            parse_idx(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">ii", 0x00000801, 2) + bytes([1, 11]))
        with pytest.raises(ValueError, match="0..9"):
            parse_idx(path)


class TestHcMnist:
    def test_phi_within_class_bins(self):
        images, labels = toy_mnist()
        cfg = HcMnistConfig.from_data(images, labels)
        phi = phi_from_images(images, labels, cfg)
        lo = -2.0 + 0.4 * labels
        assert np.all(phi >= lo) and np.all(phi <= lo + 0.4)

    def test_dataset_shape_and_confounder_column(self):
        images, labels = toy_mnist()
        d = build_hcmnist(images, labels, seed=1,
                          config=HcMnistConfig.from_data(images, labels))
        assert d.d_x == 785
        u = d.x[:, -1]
        assert np.all((u == 0.0) | (u == 1.0))

    def test_consistency_and_oracle(self):
        images, labels = toy_mnist()
        cfg = HcMnistConfig.from_data(images, labels)
        d = build_hcmnist(images, labels, seed=2, config=cfg)
        assert np.array_equal(d.y, d.a * d.y1 + (1.0 - d.a) * d.y0)
        phi = phi_from_images(images, labels, cfg)
        assert np.allclose(d.tau_oracle, 2.0 * phi + 2.0 - 4.0 * np.sin(2.0 * phi))

    def test_treatment_probability_valid_everywhere(self):
        from catebounds.data import _alpha_beta

        # alpha, beta >= 1 across the phi range makes 1/alpha, 1/beta
        # probabilities for both confounder values
        phi = np.linspace(-2.0, 2.0, 4001)
        alpha, beta = _alpha_beta(phi, np.e)
        assert np.all(alpha >= 1.0) and np.all(beta >= 1.0)

    def test_missing_class_rejected(self):
        images, labels = toy_mnist()
        keep = labels != 4
        with pytest.raises(ValueError, match="class 4"):
            HcMnistConfig.from_data(images[keep], labels[keep])

    def test_deterministic_and_split_streams(self):
        images, labels = toy_mnist()
        cfg = HcMnistConfig.from_data(images, labels)
        d1 = build_hcmnist(images, labels, seed=3, config=cfg)
        d2 = build_hcmnist(images, labels, seed=3, config=cfg)
        te = build_hcmnist(images, labels, seed=3, config=cfg, split="test")
        assert np.array_equal(d1.a, d2.a) and np.array_equal(d1.y, d2.y)
        assert not np.array_equal(d1.a, te.a) or not np.array_equal(d1.y, te.y)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HcMnistConfig(class_means=(0.0,) * 9, class_stds=(1.0,) * 9)
        with pytest.raises(ValueError):
            HcMnistConfig(class_means=(0.0,) * 10, class_stds=(0.0,) * 10)

    def test_image_sets_checked(self):
        images, labels = toy_mnist()
        cfg = HcMnistConfig.from_data(images, labels)
        bad_label = labels.copy()
        bad_label[3] = 15
        calls = {
            "HcMnistConfig.from_data": HcMnistConfig.from_data,
            "phi_from_images": lambda pix, lab: phi_from_images(pix, lab, cfg),
            "build_hcmnist": lambda pix, lab: build_hcmnist(pix, lab, 0, cfg),
        }
        cases = [
            (images, labels[:19], "do not align"),
            (images, labels[:, None], "do not align"),
            (images, bad_label, "0..9"),
            (images, labels - 1, "0..9"),
            (images, labels.astype(np.float64), "integers"),
            # float images would be divided by 255 a second time
            (images / 255.0, labels, "2-D uint8"),
            (images.astype(np.int64), labels, "2-D uint8"),
            (images.reshape(-1, 28, 28), labels, "2-D uint8"),
        ]
        for who, call in calls.items():
            for pixels, lab, why in cases:
                with pytest.raises(ValueError, match=f"^{re.escape(who)}: .*{why}"):
                    call(pixels, lab)


_N_TEST = (1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1)


def _idx_pixels(data, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random images with some rows all 0 and some all 255, and labels."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, 256, size=(n, 784), dtype=np.uint8)
    for value in (0, 255):
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        pixels[rows] = value
    return pixels, rng.integers(0, 10, size=n)


class TestHcMnistOracle:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_the_float_image_path(self, data, tmp_path_factory):
        # the oracle divides a float copy of the images, takes every row's
        # intensity at once and column-stacks the covariates; the training
        # split is large enough to hold every class
        tmp = tmp_path_factory.mktemp("idx")
        gzipped = data.draw(st.booleans())
        files = {}
        for split, sizes in (("train", _N_TEST[2:]), ("test", _N_TEST)):
            pixels, labels = _idx_pixels(data, data.draw(st.sampled_from(sizes)))
            blob = idx_images_bytes(pixels.reshape(-1, 28, 28))
            path = tmp / f"{split}.idx"
            path.write_bytes(gzip.compress(blob) if gzipped else blob)
            files[split] = path, labels
        tr_path, tr_labels = files["train"]
        stats = HcMnistConfig.from_data(parse_idx(tr_path), tr_labels)
        want_stats = hcmnist_stats_float(parse_idx_float(tr_path), tr_labels)
        assert (np.array(stats.class_means + stats.class_stds).tobytes()
                == np.array(want_stats.class_means + want_stats.class_stds).tobytes())
        for split, (path, labels) in files.items():
            pixels, images = parse_idx(path), parse_idx_float(path)
            assert (phi_from_images(pixels, labels, stats).tobytes()
                    == phi_float(images, labels, stats).tobytes())
            got = build_hcmnist(pixels, labels, 5, stats, split)
            want = build_hcmnist_float(images, labels, 5, stats, split)
            for name in ("x", "a", "y", "y0", "y1", "tau_oracle"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.x.flags.c_contiguous and got.split == split
