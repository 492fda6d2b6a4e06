"""Dataset loading/generation tests: determinism, standardization, parsing."""

import numpy as np
import pytest

from sparseguard.data import LabeledSet, load_dataset


def test_blobs_deterministic_bytes():
    desc = {"kind": "blobs", "classes": 4, "n_train": 1000, "n_test": 200,
            "dim": 2, "seed": 7}
    a_train, a_test = load_dataset(desc)
    b_train, b_test = load_dataset(desc)
    assert a_train.x.tobytes() == b_train.x.tobytes()
    assert a_train.y.tobytes() == b_train.y.tobytes()
    assert a_test.x.tobytes() == b_test.x.tobytes()


def test_blobs_shapes_and_labels():
    train, test = load_dataset({"kind": "blobs", "classes": 3, "n_train": 90,
                                "n_test": 30, "dim": 5, "seed": 1})
    assert train.x.shape == (90, 5) and test.x.shape == (30, 5)
    assert set(np.unique(train.y)) == {0, 1, 2}
    counts = np.bincount(train.y)
    assert counts.max() - counts.min() <= 1


def test_standardization_train_stats(tmp_path):
    train, test = load_dataset({"kind": "blobs", "classes": 4, "n_train": 400,
                                "n_test": 100, "dim": 3, "seed": 2})
    np.testing.assert_allclose(train.x.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(train.x.std(axis=0), 1.0, atol=1e-9)
    # the test split is standardized with the training split's statistics
    raw_train = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0], [7.0, 40.0]])
    raw_test = np.array([[2.0, 50.0], [9.0, 60.0], [4.0, 70.0]])
    for name, raw in (("train.csv", raw_train), ("test.csv", raw_test)):
        (tmp_path / name).write_text("".join(
            f"{a},{b},{i % 2}\n" for i, (a, b) in enumerate(raw)))
    _, test = load_dataset({"kind": "csv", "path": str(tmp_path / "train.csv"),
                            "test_path": str(tmp_path / "test.csv")})
    expected = (raw_test - raw_train.mean(axis=0)) / raw_train.std(axis=0)
    np.testing.assert_allclose(test.x, expected, rtol=0, atol=1e-12)
    own = (raw_test - raw_test.mean(axis=0)) / raw_test.std(axis=0)
    assert not np.allclose(test.x, own, rtol=0, atol=1e-6)


def test_spirals_generation():
    train, test = load_dataset({"kind": "spirals", "classes": 2, "n_train": 200,
                                "n_test": 40, "seed": 3})
    assert train.x.shape == (200, 2)
    assert set(np.unique(test.y)) <= {0, 1}


def test_blobs_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        load_dataset({"kind": "blobs", "classes": 4, "n_train": 10,
                      "n_test": 10, "seed": 0, "wat": 1})


BLOBS = {"kind": "blobs", "classes": 3, "n_train": 30, "n_test": 12,
         "seed": 0}


@pytest.mark.parametrize("change, message", [
    ({"n_train": 128.7}, "dataset key n_train must be an integer"),
    ({"seed": True}, "dataset key seed must be an integer"),
    ({"classes": 3.0}, "dataset key classes must be an integer"),
    ({"dim": "4"}, "dataset key dim must be an integer"),
    ({"cluster_std": "1.2"}, "dataset key cluster_std must be a number"),
    ({"center_spread": False}, "dataset key center_spread must be a number"),
    ({"kind": "spirals", "n_test": None}, "dataset key n_test must be an integer"),
    ({"kind": "spirals", "noise": [0.1]}, "dataset key noise must be a number"),
], ids=["float count", "bool seed", "integral float", "string integer",
        "string float", "bool float", "null count", "list float"])
def test_wrongly_typed_descriptor_values_rejected(change, message):
    with pytest.raises(ValueError, match=message):
        load_dataset(dict(BLOBS, **change))


def test_csv_wrongly_typed_split_values_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("".join(f"{i},{i % 2}\n" for i in range(10)))
    desc = {"kind": "csv", "path": str(path), "test_fraction": 0.2, "seed": 1}
    load_dataset(desc)
    with pytest.raises(ValueError, match="dataset key seed must be an integer"):
        load_dataset(dict(desc, seed=1.5))
    with pytest.raises(ValueError, match="test_fraction must be a number"):
        load_dataset(dict(desc, test_fraction="0.2"))


def test_numeric_descriptor_values_accept_numpy_scalars():
    train, _ = load_dataset(dict(BLOBS, n_train=np.int64(30),
                                 cluster_std=np.float64(1.5)))
    assert len(train) == 30


def test_empty_split_rejected():
    with pytest.raises(ValueError):
        load_dataset({"kind": "blobs", "classes": 2, "n_train": 0,
                      "n_test": 10, "seed": 0})


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    rows = ["f1,f2,label"]
    for i in range(40):
        rows.append(f"{rng.normal():.6f},{rng.normal():.6f},{i % 3}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    train, test = load_dataset({"kind": "csv", "path": str(path),
                                "test_fraction": 0.25, "seed": 5})
    assert len(train) == 30 and len(test) == 10
    assert train.x.shape[1] == 2
    np.testing.assert_allclose(train.x.mean(axis=0), 0.0, atol=1e-9)


def test_csv_two_files(tmp_path):
    for name, n in (("train.csv", 12), ("test.csv", 6)):
        lines = [f"{i * 0.5},{i % 2}" for i in range(n)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    train, test = load_dataset({"kind": "csv", "path": str(tmp_path / "train.csv"),
                                "test_path": str(tmp_path / "test.csv")})
    assert len(train) == 12 and len(test) == 6


def test_csv_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\n1.5,oops,1\n")
    with pytest.raises(ValueError, match=r"row 2.*column 2"):
        load_dataset({"kind": "csv", "path": str(path), "test_fraction": 0.5,
                      "seed": 0})


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_cell_rejected(tmp_path, cell):
    path = tmp_path / "inf.csv"
    path.write_text(f"1.0,2.0,0\n1.5,2.5,1\n{cell},3.0,0\n2.5,3.5,1\n")
    with pytest.raises(ValueError, match=f"row 3, column 1: '{cell}' is not finite"):
        load_dataset({"kind": "csv", "path": str(path), "test_fraction": 0.5,
                      "seed": 0})


@pytest.mark.parametrize("train_rows, test_rows, column", [
    # two 1e308 cells overflow the training mean of column 1
    (["1e308,2.0,0", "1e308,2.5,1", "3.0,3.0,0", "4.0,3.5,1"],
     ["1.0,1.0,0", "2.0,2.0,1"], 1),
    # column 2's training spread is 5e-151, so a test value of 1e160 overflows
    (["1.0,0.0,0", "2.0,1e-150,1", "3.0,0.0,0", "4.0,1e-150,1"],
     ["1.0,1e160,0", "2.0,0.0,1"], 2),
], ids=["training mean", "scaled test value"])
def test_csv_column_that_overflows_standardization_rejected(
        tmp_path, train_rows, test_rows, column):
    for name, rows in (("train.csv", train_rows), ("test.csv", test_rows)):
        (tmp_path / name).write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"feature column {column} does not "
                                         "standardize to finite values"):
        load_dataset({"kind": "csv", "path": str(tmp_path / "train.csv"),
                      "test_path": str(tmp_path / "test.csv")})


def test_csv_negative_label_rejected(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("1.0,-1\n2.0,0\n")
    with pytest.raises(ValueError, match="label"):
        load_dataset({"kind": "csv", "path": str(path), "test_fraction": 0.5,
                      "seed": 0})


def test_labeled_set_len():
    s = LabeledSet(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
    assert len(s) == 5
