"""Count matrix model and TSV round trips."""

import codecs
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_line_table_rows, same_counts

from poiskit.count_matrix import (
    CountMatrix,
    LabeledDataset,
    Partition,
    _loadtxt_rows,
    first_appearance_index,
    format_number,
    parse_rows,
    partition_of,
    read_count_matrix,
    read_label_map,
    read_labels,
    read_table,
    write_count_matrix,
    write_labels,
    write_partition,
    write_table,
)
from poiskit.dissimilarity import DissimilarityMatrix, read_dissimilarity, write_dissimilarity
from poiskit.errors import ParseError, ValidationError


def write(tmp_path, text, name="m.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_partition(path):
    """An (id, cluster) file read the way ``cer`` and ``cluster --sweep`` read one."""
    by_id = read_label_map(path)
    return list(by_id), partition_of(by_id.values())


TSV_2X3 = "id\tf1\tf2\tf3\ns1\t1\t2\t3\ns2\t4\t5\t6\n"


def test_read_basic(tmp_path):
    m = read_count_matrix(write(tmp_path, TSV_2X3))
    assert m.shape == (2, 3)
    assert m.sample_ids == ("s1", "s2")
    assert m.feature_ids == ("f1", "f2", "f3")
    assert m.values.sum() == 21


def test_read_features_as_rows_is_transpose(tmp_path):
    path = write(tmp_path, TSV_2X3)
    canonical = read_count_matrix(path)
    flipped = read_count_matrix(path, orientation="features")
    assert same_counts(flipped, canonical.transpose())


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


@pytest.mark.filterwarnings("error")
def test_non_numeric_reports_line(tmp_path):
    path = write(tmp_path, "id\tf1\ns1\tone\n")
    with pytest.raises(ParseError, match="line 2"):
        read_count_matrix(path)
    # an empty last cell on every line, which numpy's reader would skip as a blank line
    path = write(tmp_path, "id\tf1\ns1\t\n")
    with pytest.raises(ParseError, match="^.*: line 2: non-numeric cell in row 's1': .* ''$"):
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


@pytest.mark.filterwarnings("error")
def test_header_without_rows_rejected(tmp_path):
    for text in ("id\tf1\n", "id\tf1\n\n\n"):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as excinfo:
            read_count_matrix(path)
        assert str(excinfo.value) == f"{path}: line 2: file contains no data rows"


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
    assert same_counts(read_count_matrix(path), m)


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
    write_dissimilarity(DissimilarityMatrix(full, names, "poisson", "quantile"), path)
    expected = "id\t" + "\t".join(names) + "\n" + "".join(
        name + "\t" + "\t".join(format_number(v) for v in row) + "\n"
        for name, row in zip(names, full)
    )
    assert path.read_bytes() == expected.encode()


# integer cells on both sides of the 2**53 edge of the integer row format, past
# 1e17 (where "%.17g" turns to an exponent) and signed, which it must leave alone
_EDGE_INTEGERS = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 2.0**62, -1.0, -1e16]
)
_INTEGER_FLOAT = st.one_of(_EDGE_INTEGERS, st.integers(-(2**60), 2**60).map(float))
_NOT_INTEGER = st.sampled_from([0.5, 1 / 3, 5e-324, 2.0**52 + 0.5, 1e-300, -2.5])
_NOT_FINITE = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf])


def _per_cell_table(col_ids, row_ids, values) -> bytes:
    return ("id\t" + "\t".join(col_ids) + "\n" + "".join(
        row_id + "\t" + "\t".join(format_number(v) for v in row) + "\n"
        for row_id, row in zip(row_ids, values)
    )).encode()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as a cast of NaN or infinity does
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_write_table_equals_per_cell_format_number(tmp_path_factory, data):
    n, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    cells = data.draw(st.lists(_INTEGER_FLOAT, min_size=n * width, max_size=n * width))
    values = np.array(cells).reshape(n, width)
    for row in values:  # a row of integers but one cell, which may not be finite
        odd = data.draw(st.sampled_from([None, _NOT_INTEGER, _NOT_FINITE]))
        if odd is not None:
            row[data.draw(st.integers(0, width - 1))] = data.draw(odd)
    col_ids = [f"f{j}" for j in range(width)]
    row_ids = [f"s{i}" for i in range(n)]
    path = tmp_path_factory.mktemp("w") / "table.tsv"
    write_table(path, col_ids, row_ids, values)
    assert path.read_bytes() == _per_cell_table(col_ids, row_ids, values)


@given(
    cells=st.lists(
        st.one_of(_EDGE_INTEGERS, st.integers(0, 2**64).map(float)), min_size=1, max_size=24
    ),
    width=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_integer_tables_round_trip_bitwise(tmp_path_factory, cells, width):
    values = np.array(cells + [0.0] * (-len(cells) % width)).reshape(-1, width)
    col_ids = [f"f{j}" for j in range(width)]
    row_ids = [f"s{i}" for i in range(values.shape[0])]
    path = tmp_path_factory.mktemp("w") / "table.tsv"
    write_table(path, col_ids, row_ids, values)
    read_cols, read_rows, read_values = read_table(path)
    assert (read_cols, read_rows) == (col_ids, row_ids)
    assert np.array_equal(read_values.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize(
    "shape", [(6,), (1, 6), (3, 6), (2, 5), (2, 7), (2, 3, 2), (0, 6), ()]
)
def test_write_table_rejects_values_of_another_shape(tmp_path, shape):
    path = tmp_path / "table.tsv"
    with pytest.raises(ValidationError, match=r"shape .* expected 2 x 6"):
        write_table(path, [f"f{j}" for j in range(6)], ["s0", "s1"], np.zeros(shape))
    assert not path.exists()


def test_write_to_unwritable_path_raises(tmp_path):
    m = CountMatrix([[1.0]], ("s1",), ("f1",))
    with pytest.raises(OSError):
        write_count_matrix(m, tmp_path / "missing_dir" / "out.tsv")


def test_column_totals():
    m = CountMatrix([[1, 2], [3, 4]], ("a", "b"), ("x", "y"))
    assert np.array_equal(m.values.sum(axis=0), [4, 6])
    assert np.array_equal(CountMatrix([[0, 5]], ("a",), ("x", "y")).values.sum(axis=0), [0, 5])


def test_transpose_twice_is_identity():
    rng = np.random.default_rng(2)
    m = CountMatrix(rng.random((4, 6)), tuple("abcd"), tuple("uvwxyz"))
    assert same_counts(m.transpose().transpose(), m)


@given(
    n=st.integers(1, 6),
    p=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_marginals_match_the_input_values(n, p, seed):
    values = np.random.default_rng(seed).random((n, p)) * 100
    m = CountMatrix(values, tuple(map(str, range(n))), tuple(map(str, range(n, n + p))))
    assert np.array_equal(m.values.sum(axis=1), values.sum(axis=1))
    assert np.array_equal(m.values.sum(axis=0), values.sum(axis=0))
    assert m.values.sum() == values.sum()


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


def test_labels_of_ids_outside_the_matrix_number_no_class(tmp_path):
    """Classes are numbered among the rows that name a sample; other rows are ignored."""
    m = CountMatrix([[1], [2], [3]], ("s1", "s2", "s3"), ("f1",))
    text = "x0\tc3\ns1\ttumor\nx2\tnormal\ns2\tnormal\ns3\ttumor\nx1\tc9\n"
    data = read_labels(write(tmp_path, text, "labels.tsv"), m)
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


# Characters that str.splitlines breaks lines at but a TSV file may hold in a cell
_AWKWARD = st.text(st.sampled_from("ab\x0b\x0c\x1c\x85\u2028\u2029"), min_size=1, max_size=4)


@given(ids=st.lists(_AWKWARD, min_size=2, max_size=5, unique=True), data=st.data())
@settings(max_examples=40, deadline=None)
def test_ids_and_names_with_other_line_breaks_round_trip(tmp_path_factory, ids, data):
    folder = tmp_path_factory.mktemp("awkward")
    n = len(ids)
    features = data.draw(st.lists(_AWKWARD, min_size=1, max_size=3, unique=True))
    m = CountMatrix(np.arange(n * len(features), dtype=float).reshape(n, -1), ids, features)
    write_count_matrix(m, folder / "c.tsv")
    assert same_counts(read_count_matrix(folder / "c.tsv"), m)

    names = data.draw(st.lists(_AWKWARD, min_size=n, max_size=n))
    index_of = first_appearance_index(names)
    labels = [index_of[name] for name in names]
    write_labels(folder / "l.tsv", LabeledDataset(m, labels, len(index_of), tuple(index_of)))
    loaded = read_labels(folder / "l.tsv", m)
    assert loaded.class_names == tuple(index_of)
    assert loaded.labels.tolist() == labels
    # the same file as a partition whose cluster names are awkward
    part_ids, part = read_partition(folder / "l.tsv")
    assert part_ids == ids and part.assignments.tolist() == labels
    write_partition(folder / "p.tsv", ids, part)
    part_ids, again = read_partition(folder / "p.tsv")
    assert part_ids == ids and again.assignments.tolist() == labels

    full = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    dm = DissimilarityMatrix(full, ids, "poisson", "quantile")
    write_dissimilarity(dm, folder / "d.tsv")
    loaded_dm = read_dissimilarity(folder / "d.tsv")
    assert loaded_dm.ids == dm.ids and np.array_equal(loaded_dm.condensed, dm.condensed)


def test_crlf_and_lone_cr_files_read_like_their_lf_twins(tmp_path):
    readers = {
        "counts": (TSV_2X3.replace("s2", "\ns2"), read_count_matrix),
        "labels": ("s1\tx\n\ns2\ty\n", read_label_map),
        "partition": ("s1\t1\ns2\t2\n\n", read_partition),
        "dissim": ("id\ta\tb\n\na\t0\t1\nb\t1\t0\n", read_dissimilarity),
    }
    for kind, (text, read) in readers.items():
        lf = read(write(tmp_path, text, f"{kind}.tsv"))
        for newline in ("\r\n", "\r"):
            twin = read(write(tmp_path, text.replace("\n", newline), f"{kind}-twin.tsv"))
            if kind == "counts":
                assert same_counts(twin, lf)
            elif kind == "labels":
                assert twin == lf
            elif kind == "partition":
                assert twin[0] == lf[0] and np.array_equal(twin[1].assignments, lf[1].assignments)
            else:
                assert twin.ids == lf.ids and np.array_equal(twin.condensed, lf.condensed)
    # a bad cell or byte after a blank line is on line 4 whatever ends the lines
    for newline in ("\n", "\r\n", "\r"):
        path = write(tmp_path, "id\tf1\ns1\t1\n\ns2\tx\n".replace("\n", newline))
        with pytest.raises(ParseError, match="^.*: line 4: non-numeric cell in row 's2'"):
            read_count_matrix(path)
        path.write_bytes(path.read_bytes().replace(b"x", b"\xff"))
        with pytest.raises(ParseError, match="^line 4: invalid UTF-8 in "):
            read_count_matrix(path)


def test_files_starting_with_a_byte_order_mark_read_like_their_twins(tmp_path):
    for kind, text, read in (
        ("counts", TSV_2X3, read_count_matrix), ("labels", "s1\tx\ns2\ty\n", read_label_map)
    ):
        plain = read(write(tmp_path, text, f"{kind}.tsv"))
        marked = tmp_path / f"{kind}-bom.tsv"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert same_counts(read(marked), plain) if kind == "counts" else read(marked) == plain
    # the mark is no line of its own, so a bad byte on line 2 is reported there
    marked.write_bytes(codecs.BOM_UTF8 + b"id\tf1\ns1\t\xff\n")
    with pytest.raises(ParseError, match="^line 2: invalid UTF-8 in "):
        read_count_matrix(marked)
    # and only a leading mark is stripped: one inside a cell is text float() rejects
    marked.write_bytes(b"id\tf1\ns1\t" + codecs.BOM_UTF8 + b"1\n")
    with pytest.raises(ParseError, match="^.*: line 2: non-numeric cell in row 's1'"):
        read_count_matrix(marked)


@pytest.mark.filterwarnings("error")  # numpy's reader warns on a body it reads as no data
@pytest.mark.parametrize("body", ["\r", "\n", "\r\n"])
def test_body_holding_only_a_line_break_is_a_parse_error_on_its_line(body):
    with pytest.raises(ParseError, match=r"^line 2: non-numeric cell in row 's0'"):
        parse_rows(["id\tf0", "s0\t" + body], 1)


# Cells that float() and numpy's reader take differently, or that only look numeric;
# "#1" starts a comment for loadtxt's default reader.
_DAMAGED_CELLS = [
    "١", "１", "١.٥", "1_0", "#1", '"1"', "", " ", " 1 ", "\x1c1", "1\x1f", "\x851",
    "1e400", "-1e400", "4.9e-324", "-0", "nan", "0x10",
]
_LINE_DAMAGE = ["trailing tab", "no tab", "whitespace line", "blank line", "crlf"]
_FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(),
)
# cells of integer tables: 16-19 digits round to float64 (ties to even), 2**63
# and past it overflow the int64 reader; the signed, spaced and empty cells
# send a table to the float reader or to the per-line loop
_INTEGER_CELL = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(10**15, 10**19 - 1).map(str),
    st.tuples(st.integers(1, 20), st.integers(0, 10**6)).map(lambda z: "0" * z[0] + str(z[1])),
    st.sampled_from(
        ["9007199254740993", "9223372036854775807", "9223372036854775808",
         "18446744073709551617", "", "-0", "+3", " 3"]
    ),
)


def _damaged(lines: list[str], damage: str | None, row: int, column: int) -> list[str]:
    """``lines`` with ``damage`` (a cell, or one of ``_LINE_DAMAGE``) at data line ``row``."""
    lines = list(lines)
    if damage == "trailing tab":
        lines[row] += "\t"
    elif damage == "no tab":
        lines[row] = lines[row].partition("\t")[0]
    elif damage == "whitespace line":
        lines.insert(row, " ")
    elif damage == "blank line":
        lines.insert(row, "")
    elif damage == "crlf":  # lines split at "\n" alone keep the "\r" of a CRLF ending
        lines[1:] = [line + "\r" for line in lines[1:]]
    elif damage is not None:
        cells = lines[row].split("\t")
        cells[column] = damage
        lines[row] = "\t".join(cells)
    return lines


@pytest.mark.filterwarnings("error::UserWarning")  # numpy's reader must not warn on any table
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("damage", [None] + _LINE_DAMAGE + _DAMAGED_CELLS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_parse_rows_equals_the_per_line_reference(damage, data):
    n, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):  # an integer table
        cells = data.draw(st.lists(_INTEGER_CELL, min_size=n * width, max_size=n * width))
    else:
        numbers = data.draw(st.lists(_FLOAT64, min_size=n * width, max_size=n * width))
        cells = [data.draw(st.sampled_from([format_number, repr]))(x) for x in numbers]
    lines = ["id\t" + "\t".join(f"f{j}" for j in range(width))] + [
        f"s{i}\t" + "\t".join(cells[i * width : (i + 1) * width]) for i in range(n)
    ]
    lines = _damaged(lines, damage, data.draw(st.integers(1, n)), data.draw(st.integers(1, width)))
    if data.draw(st.booleans()):  # a blank line shifts the line numbers after it
        lines.insert(data.draw(st.integers(1, len(lines))), "")
    try:
        expected_ids, expected = per_line_table_rows(lines, width)
    except ParseError as reference:
        with pytest.raises(ParseError) as excinfo:
            parse_rows(lines, width)
        assert str(excinfo.value) == str(reference)
        assert excinfo.value.line == reference.line
        return
    if damage is None:  # an ordinary table takes numpy's C reader
        assert _loadtxt_rows([raw for raw in lines[1:] if raw != ""], width) is not None
    row_ids, values = parse_rows(lines, width)
    assert row_ids == expected_ids
    assert values.dtype == np.float64 and values.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(values), nan)
    assert np.array_equal(values[~nan].view(np.uint64), expected[~nan].view(np.uint64))


@pytest.mark.parametrize(
    "cell",
    ["0", "007", "9007199254740993", "9999999999999999999", "9223372036854775807",
     "9223372036854775808", "", "-0", "+3", " 3"],
)
def test_integer_table_cells_equal_the_per_line_reference(cell):
    lines = ["id\tf0\tf1", "s0\t12\t" + cell, "s1\t0\t3"]
    try:
        expected_ids, expected = per_line_table_rows(lines, 2)
    except ParseError as reference:
        with pytest.raises(ParseError) as excinfo:
            parse_rows(lines, 2)
        assert str(excinfo.value) == str(reference)
        return
    row_ids, values = parse_rows(lines, 2)
    assert row_ids == expected_ids
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb", "\r"])
def test_writers_reject_cells_holding_a_tab_or_line_break(tmp_path, bad):
    def counts(sample, feature):
        return CountMatrix([[1.0]], (sample,), (feature,))

    writers = {
        "sample id": lambda: write_count_matrix(counts(bad, "f"), tmp_path / "c"),
        "feature id": lambda: write_count_matrix(counts("s", bad), tmp_path / "c"),
        "class name": lambda: write_labels(
            tmp_path / "l", LabeledDataset(counts("s", "f"), [1], 1, (bad,))
        ),
        "partition id": lambda: write_partition(tmp_path / "p", [bad], Partition([1], 1)),
        "dissimilarity id": lambda: write_dissimilarity(
            DissimilarityMatrix([[0.0, 1.0], [1.0, 0.0]], (bad, "b"), "poisson", "total-count"),
            tmp_path / "d",
        ),
    }
    for write_file in writers.values():
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            write_file()
    assert list(tmp_path.iterdir()) == []  # nothing half written
