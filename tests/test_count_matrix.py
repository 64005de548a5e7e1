"""Count matrix model and TSV round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit.count_matrix import (
    CountMatrix,
    LabeledDataset,
    Partition,
    format_number,
    read_count_matrix,
    read_labels,
    read_partition,
    write_count_matrix,
    write_partition,
)
from poiskit.dissimilarity import DissimilarityMatrix, write_dissimilarity
from poiskit.errors import ParseError, ValidationError


def write(tmp_path, text, name="m.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


TSV_2X3 = "id\tf1\tf2\tf3\ns1\t1\t2\t3\ns2\t4\t5\t6\n"


def test_read_basic(tmp_path):
    m = read_count_matrix(write(tmp_path, TSV_2X3))
    assert m.shape == (2, 3)
    assert m.sample_ids == ("s1", "s2")
    assert m.feature_ids == ("f1", "f2", "f3")
    assert m.grand_total == 21


def test_read_features_as_rows_is_transpose(tmp_path):
    path = write(tmp_path, TSV_2X3)
    canonical = read_count_matrix(path)
    flipped = read_count_matrix(path, orientation="features")
    assert flipped.equals(canonical.transpose())


def test_negative_value_names_cell(tmp_path):
    path = write(tmp_path, "id\tf1\tf2\ns1\t1\t-1\n")
    with pytest.raises(ValidationError, match="s1.*f2"):
        read_count_matrix(path)


def test_non_finite_rejected(tmp_path):
    path = write(tmp_path, "id\tf1\ns1\tnan\n")
    with pytest.raises(ValidationError, match="non-finite"):
        read_count_matrix(path)


def test_ragged_row_reports_line(tmp_path):
    path = write(tmp_path, "id\tf1\tf2\ns1\t1\t2\ns2\t3\n")
    with pytest.raises(ParseError, match="line 3"):
        read_count_matrix(path)


def test_non_numeric_reports_line(tmp_path):
    path = write(tmp_path, "id\tf1\ns1\tone\n")
    with pytest.raises(ParseError, match="line 2"):
        read_count_matrix(path)
    # a blank line still counts, and the message is float()'s
    path = write(tmp_path, "id\tf1\tf2\ns1\t1\t2\n\ns2\t3\t0x10\n")
    with pytest.raises(ParseError) as excinfo:
        read_count_matrix(path)
    assert str(excinfo.value) == (
        f"{path}: line 4: non-numeric cell in row 's2': could not convert string to float: '0x10'"
    )


def test_bad_header_rejected(tmp_path):
    path = write(tmp_path, "gene\tf1\ns1\t1\n")
    with pytest.raises(ParseError, match="line 1"):
        read_count_matrix(path)


def test_duplicate_ids_rejected(tmp_path):
    with pytest.raises(ValidationError, match="duplicate sample"):
        read_count_matrix(write(tmp_path, "id\tf1\ns1\t1\ns1\t2\n"))
    with pytest.raises(ValidationError, match="duplicate feature"):
        read_count_matrix(write(tmp_path, "id\tf1\tf1\ns1\t1\t2\n"))


def test_integer_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = CountMatrix(
        rng.integers(0, 1000, size=(10, 50)).astype(float),
        tuple(f"s{i}" for i in range(10)),
        tuple(f"f{j}" for j in range(50)),
    )
    path = tmp_path / "counts.tsv"
    write_count_matrix(m, path)
    assert read_count_matrix(path).equals(m)


def test_real_round_trip_exact(tmp_path):
    # 17 significant digits give exact float64 round trips, beating the
    # 15-digit contract
    rng = np.random.default_rng(1)
    m = CountMatrix(
        rng.random((5, 7)) ** 0.37 * 1234.5,
        tuple(f"s{i}" for i in range(5)),
        tuple(f"f{j}" for j in range(7)),
    )
    path = tmp_path / "real.tsv"
    write_count_matrix(m, path)
    assert np.array_equal(read_count_matrix(path).values, m.values)


def test_writers_match_per_cell_format_number(tmp_path):
    # integers, tiny and huge magnitudes, subnormals and 17-digit values
    cells = np.array([
        0.0, 1.0, 7.0, 12345678901234567.0, 2.0**53 + 2, 1e-300, 1e300, 5e-324,
        2.2250738585072014e-308 / 3, 0.1, 1 / 3, 2 / 3, 123456.78901234567, 9.999999999999999e22,
        np.nextafter(1.0, 2.0), 1.7976931348623157e300,
    ])
    rng = np.random.default_rng(2)
    values = np.stack([rng.permutation(cells) for _ in range(4)])
    ids = tuple(f"s{i}" for i in range(4))
    m = CountMatrix(values, ids, tuple(f"f{j}" for j in range(cells.size)))
    path = tmp_path / "counts.tsv"
    write_count_matrix(m, path)
    expected = "id\t" + "\t".join(m.feature_ids) + "\n" + "".join(
        sid + "\t" + "\t".join(format_number(v) for v in row) + "\n"
        for sid, row in zip(ids, values)
    )
    assert path.read_bytes() == expected.encode()

    full = np.zeros((cells.size, cells.size))
    rows, cols = np.triu_indices(cells.size, 1)
    full[rows, cols] = full[cols, rows] = rng.choice(cells, rows.size)
    names = tuple(f"d{i}" for i in range(cells.size))
    path = tmp_path / "dissim.tsv"
    write_dissimilarity(DissimilarityMatrix.from_full(full, names, "poisson", "quantile"), path)
    expected = "id\t" + "\t".join(names) + "\n" + "".join(
        name + "\t" + "\t".join(format_number(v) for v in row) + "\n"
        for name, row in zip(names, full)
    )
    assert path.read_bytes() == expected.encode()


def test_write_to_unwritable_path_raises(tmp_path):
    m = CountMatrix([[1.0]], ("s1",), ("f1",))
    with pytest.raises(OSError):
        write_count_matrix(m, tmp_path / "missing_dir" / "out.tsv")


def test_column_totals():
    m = CountMatrix([[1, 2], [3, 4]], ("a", "b"), ("x", "y"))
    assert np.array_equal(m.col_sums, [4, 6])
    assert np.array_equal(CountMatrix([[0, 5]], ("a",), ("x", "y")).col_sums, [0, 5])


def test_transpose_twice_is_identity():
    rng = np.random.default_rng(2)
    m = CountMatrix(rng.random((4, 6)), tuple("abcd"), tuple("uvwxyz"))
    assert m.transpose().transpose().equals(m)


@given(
    n=st.integers(1, 6),
    p=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_cached_marginals_match_recomputation(n, p, seed):
    values = np.random.default_rng(seed).random((n, p)) * 100
    m = CountMatrix(values, tuple(map(str, range(n))), tuple(map(str, range(n, n + p))))
    assert np.array_equal(m.row_sums, m.values.sum(axis=1))
    assert np.array_equal(m.col_sums, m.values.sum(axis=0))
    assert m.grand_total == m.values.sum()


def test_values_are_immutable():
    m = CountMatrix([[1.0, 2.0]], ("s1",), ("f1", "f2"))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


@given(seed=st.integers(0, 10_000), mode=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_random_corruptions_are_rejected_with_location(tmp_path_factory, seed, mode):
    """Fuzz: every corrupted file is rejected, never silently accepted."""
    lines = ["id\tf1\tf2", "s1\t1\t2", "s2\t3\t4"]
    if mode == 0:
        lines[1 + seed % 2] += "\t9"  # extra column
    elif mode == 1:
        lines[1 + seed % 2] = lines[1 + seed % 2].replace("\t1", "\tx", 1).replace(
            "\t3", "\tx", 1
        )
    elif mode == 2:
        lines[2] = lines[2].replace("3", "-3")
    elif mode == 3:
        lines[2] = "s1\t3\t4"  # duplicate id
    else:
        lines[0] = "identifier\tf1\tf2"
    path = tmp_path_factory.mktemp("fuzz") / "bad.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_count_matrix(path)


def test_labels_first_appearance_order(tmp_path):
    m = CountMatrix([[1], [2], [3]], ("s1", "s2", "s3"), ("f1",))
    path = write(tmp_path, "s1\ttumor\ns2\tnormal\ns3\ttumor\n", "labels.tsv")
    data = read_labels(path, m)
    assert data.K == 2
    assert data.class_names == ("tumor", "normal")
    assert list(data.labels) == [1, 2, 1]


def test_labels_missing_sample(tmp_path):
    m = CountMatrix([[1], [2]], ("s1", "s2"), ("f1",))
    path = write(tmp_path, "s1\ta\n", "labels.tsv")
    with pytest.raises(ValidationError, match="s2"):
        read_labels(path, m)


def test_labeled_dataset_validates_classes():
    m = CountMatrix([[1], [2]], ("s1", "s2"), ("f1",))
    with pytest.raises(ValidationError, match="no members"):
        LabeledDataset(m, [1, 1], K=2)


def test_partition_round_trip(tmp_path):
    part = Partition([1, 2, 1, 3], 3)
    path = tmp_path / "part.tsv"
    write_partition(path, ["a", "b", "c", "d"], part)
    ids, loaded = read_partition(path)
    assert ids == ["a", "b", "c", "d"]
    assert np.array_equal(loaded.assignments, part.assignments)


def test_partition_requires_contiguous_clusters():
    with pytest.raises(ValidationError):
        Partition([1, 3], 3)
