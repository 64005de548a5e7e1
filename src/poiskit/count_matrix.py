"""Count-matrix data model, labeled datasets, partitions, and TSV I/O.

The canonical orientation is samples-as-rows: an n x p matrix holds n
samples measured on p features. Counts are stored as float64 because the
power transform produces non-integer values that the rest of the toolkit
continues to treat as counts.

TSV format: UTF-8, tab-delimited, one header row whose first cell is the
literal ``id`` followed by the p feature ids; each data row starts with the
sample id. Files laid out the other way around (features as rows, the usual
genomics convention) are read with ``orientation="features"`` and transposed
into canonical form. Labels and partition files are two tab-separated
columns (id, name) without a header. Each file shape (id-header table,
two-column file, JSON input) is read and written in one place here.
"""

from __future__ import annotations

import base64
import codecs
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, in_file


_NUMBER_FORMAT = "%.17g"
# Every integer below this has at most 16 digits, which "%d" of its int64
# and _NUMBER_FORMAT of its float64 both print in full and alike.
_EXACT_INTEGERS = 2.0**53


def format_number(x: float) -> str:
    """Format a value with enough digits for an exact float64 round trip.

    Integer-valued entries are written without a decimal point, so files of
    raw counts look like integer tables.
    """
    return _NUMBER_FORMAT % x


def _format_row(row: np.ndarray, float_cells: str, integer_cells: str) -> str:
    """The cells of a 1-D array, each as :func:`format_number` writes it.

    ``float_cells`` and ``integer_cells`` are the tab-joined ``%.17g`` and
    ``%d`` templates of the row's width. A row of integers in [0, 2**53)
    goes through ``%d`` of its int64 cast, which prints the same digits
    faster. The sign test keeps out -0.0, which ``%d`` would print as
    ``0``; the bound then keeps out NaN and infinity, so the cast never
    meets a value it would warn on.
    """
    if not np.signbit(row).any() and row.max(initial=0.0) < _EXACT_INTEGERS:
        integers = row.astype(np.int64)
        if (integers == row).all():
            return integer_cells % tuple(integers.tolist())
    return float_cells % tuple(row.tolist())


def json_number(obj: dict, key: str) -> float:
    """``obj[key]`` of a parsed JSON object as a float; any other JSON type is an error."""
    if type(obj[key]) not in (int, float):
        raise ValidationError(f"{key} must be a number, got {obj[key]!r}")
    return float(obj[key])


def check_json_leaves(value, key: str, types: tuple[type, ...], kind: str) -> None:
    """Reject a parsed JSON value that is not one of ``types`` or a list (of lists) of them."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(reversed(item))
        elif type(item) not in types:
            raise ValidationError(f"{key} must hold JSON {kind} only, got {json.dumps(item)}")


def json_numbers(obj: dict, key: str) -> np.ndarray:
    """``obj[key]`` of a parsed JSON object, a number or a list (of lists) of them, as float64."""
    check_json_leaves(obj[key], key, (int, float), "numbers")
    return np.asarray(obj[key], dtype=np.float64)


def encode_floats(values: np.ndarray) -> str:
    """The little-endian float64 bytes of ``values``, in C order, as base64.

    Exact by construction, and about 11 characters per number against up to
    24 for a decimal ``repr``. :func:`json_floats` reads it back.
    """
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def json_floats(obj: dict, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``obj[key]`` of a parsed JSON object as a float64 array.

    A string must be :func:`encode_floats` of a vector, or of an array of
    ``shape`` when one is given; a malformed one is an error. Any other
    value, such as the list of numbers that older files hold, is read by
    :func:`json_numbers`.
    """
    value = obj[key]
    if not isinstance(value, str):
        return json_numbers(obj, key)
    try:
        data = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise ValidationError(f"{key} is not base64: {exc}") from exc
    if len(data) % 8:
        raise ValidationError(f"{key} holds {len(data)} bytes, not a whole number of float64s")
    floats = np.frombuffer(data, "<f8")
    if shape is None:
        return floats
    if floats.size != math.prod(shape):
        raise ValidationError(
            f"{key} holds {floats.size} numbers, expected {' x '.join(map(str, shape))}"
        )
    return floats.reshape(shape)


def check_unique(ids, axis: str) -> None:
    """Reject the first id of ``ids`` that repeats an earlier one, naming its ``axis``."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for name in ids:
            if name in seen:
                raise ValidationError(f"duplicate {axis} id: '{name}'")
            seen.add(name)


def first_appearance_index(names) -> dict[str, int]:
    """Map each distinct name to 1..K in order of first appearance."""
    index_of: dict[str, int] = {}
    for name in names:
        index_of.setdefault(name, len(index_of) + 1)
    return index_of


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Immutable n x p matrix of nonnegative counts with axis identifiers.

    The value array is a read-only copy, so instances are safe to share
    across threads.
    """

    values: np.ndarray
    sample_ids: tuple[str, ...]
    feature_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError("count matrix must be two-dimensional")
        n, p = values.shape
        if n < 1 or p < 1:
            raise ValidationError("count matrix must have at least one sample and one feature")
        sample_ids = tuple(str(s) for s in self.sample_ids)
        feature_ids = tuple(str(f) for f in self.feature_ids)
        if len(sample_ids) != n:
            raise ValidationError(f"expected {n} sample ids, got {len(sample_ids)}")
        if len(feature_ids) != p:
            raise ValidationError(f"expected {p} feature ids, got {len(feature_ids)}")
        check_unique(sample_ids, "sample")
        check_unique(feature_ids, "feature")
        bad = ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"non-finite value at sample '{sample_ids[i]}', feature '{feature_ids[j]}'"
            )
        neg = values < 0
        if neg.any():
            i, j = np.argwhere(neg)[0]
            raise ValidationError(
                f"negative value {values[i, j]} at sample '{sample_ids[i]}', "
                f"feature '{feature_ids[j]}'"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_ids", sample_ids)
        object.__setattr__(self, "feature_ids", feature_ids)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def transpose(self) -> "CountMatrix":
        """Swap the roles of samples and features."""
        return CountMatrix(self.values.T, self.feature_ids, self.sample_ids)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A count matrix paired with class labels in 1..K.

    ``class_names`` maps class index k to a display name; it defaults to
    "1".."K" when labels were supplied as bare indices.
    """

    matrix: CountMatrix
    labels: np.ndarray
    K: int
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.matrix.n,):
            raise ValidationError(
                f"labels length {labels.size} does not match sample count {self.matrix.n}"
            )
        if self.K < 1:
            raise ValidationError("K must be at least 1")
        present = np.unique(labels)
        if present.min() < 1 or present.max() > self.K:
            raise ValidationError(f"labels must lie in 1..{self.K}")
        if present.size != self.K:
            missing = sorted(set(range(1, self.K + 1)) - set(present.tolist()))
            raise ValidationError(f"classes with no members: {missing}")
        labels = labels.copy()
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        names = tuple(self.class_names) or tuple(str(k) for k in range(1, self.K + 1))
        if len(names) != self.K:
            raise ValidationError(f"expected {self.K} class names, got {len(names)}")
        object.__setattr__(self, "class_names", names)


@dataclass(frozen=True, eq=False)
class Partition:
    """Cluster assignments for n items, clusters numbered 1..num_clusters."""

    assignments: np.ndarray
    num_clusters: int

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=np.int64)
        if assignments.ndim != 1 or assignments.size < 1:
            raise ValidationError("partition must assign at least one item")
        present = np.unique(assignments)
        expected = np.arange(1, self.num_clusters + 1)
        if not np.array_equal(present, expected):
            raise ValidationError(
                f"cluster indices must cover 1..{self.num_clusters} with no gaps"
            )
        assignments = assignments.copy()
        assignments.flags.writeable = False
        object.__setattr__(self, "assignments", assignments)

    @property
    def n(self) -> int:
        return self.assignments.size


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, without the byte-order mark it may start with.

    Bytes that are not UTF-8 raise :class:`ParseError` naming the file and
    the line they are on, counted as :func:`read_lines` counts lines.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ParseError(f"invalid UTF-8 in {path}: {exc.reason}", line=line) from exc


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, split only at ``\\n``, ``\\r\\n`` and ``\\r``.

    These are the universal newlines of ``open``. ``str.splitlines`` would
    also split at characters that ids may hold, such as ``\\x0c`` and ``\\x85``.
    """
    text = read_text(path)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line starts no line
    return lines


def read_json_object(path: str | Path, not_object: str) -> dict:
    """The JSON object a UTF-8 file holds; ``not_object`` is the error for any other value."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: {not_object}")
    return obj


def write_json_object(path: str | Path, obj: dict) -> None:
    """Write ``json.dump(obj)`` and a newline.

    Each field is encoded by ``json.dumps``, which runs the C encoder that
    ``json.dump`` skips; one string per field keeps the peak memory at the
    largest field rather than the whole document.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{")
        for i, (key, value) in enumerate(obj.items()):
            handle.write((", " if i else "") + json.dumps(key) + ": " + json.dumps(value))
        handle.write("}\n")


def check_cells(cells, kind: str) -> None:
    """Reject the first of the strings ``cells`` that holds a tab or line break."""
    joined = "".join(cells)
    if "\t" in joined or "\n" in joined or "\r" in joined:
        bad = next(c for c in cells if "\t" in c or "\n" in c or "\r" in c)
        raise ValidationError(f"{kind} {bad!r} holds a tab or line break, which a TSV cell cannot")


# numpy's reader strips the first four from the ends of a cell as whitespace, which
# float() does not, and ends a line at the last two
_NOT_FOR_LOADTXT = ("\x1c", "\x1d", "\x1e", "\x1f", "\r", "\n")
# the bytes of a line whose cells are all unsigned decimal integers
_DIGITS_AND_TABS = b"0123456789\t"


def _loadtxt_rows(data: list[str], width: int):
    """Row ids and values of the data lines ``data`` by numpy's C reader, or None.

    Where this returns values, they are the float64 bits that ``float`` gives
    each cell: both parse the ASCII core of a cell with ``PyOS_string_to_double``.
    A table whose cells hold only ASCII digits is first read as int64, which
    is faster; each exact integer then rounds to the nearest float64, ties to
    even, as ``float`` rounds its decimal string. A cell the integer reader
    rejects (an empty one, or one past 2**63 - 1) sends the table to the
    float reader. None means the reader cannot vouch for the values: no
    lines, a line without ``width`` tabs or with nothing after its id, a cell
    holding one of ``_NOT_FOR_LOADTXT`` (a line break among them, which
    :func:`read_lines` never leaves in a line), a cell the reader rejects
    (such as ``1_0`` or a Unicode digit, which ``float`` accepts), or a
    result of another shape. Every line handed to the reader holds text, so it skips
    none and has no cause to warn; the warnings filters are left alone, as
    they are process-wide.
    """
    row_ids, bodies = [], []
    for raw in data:
        row_id, _, body = raw.partition("\t")
        if not body or body.count("\t") != width - 1 or any(c in body for c in _NOT_FOR_LOADTXT):
            return None
        row_ids.append(row_id)
        bodies.append(body)
    if not bodies:
        return None
    # all() stops at the first line with another byte, so a float table pays for one line
    integer = all(not body.encode().translate(None, _DIGITS_AND_TABS) for body in bodies)
    for dtype in (np.int64, np.float64) if integer else (np.float64,):
        try:
            values = np.loadtxt(
                bodies, delimiter="\t", comments=None, quotechar=None, dtype=dtype, ndmin=2
            )
        except ValueError:
            continue
        if values.shape != (len(data), width):
            return None
        return row_ids, values.astype(np.float64, copy=False)
    return None


def parse_rows(lines: list[str], width: int) -> tuple[list[str], np.ndarray]:
    """Row ids and values of the data lines ``lines[1:]`` of an id-header TSV.

    Blank lines are skipped. Every other line must hold an id and ``width``
    numbers, which ``float`` must accept. The whole table is first offered to
    numpy's C reader; where it cannot vouch for the values, each line is
    parsed by ``float`` into one preallocated float64 array, and a bad line
    raises :class:`ParseError` with its line number.
    """
    data = [(lineno, raw) for lineno, raw in enumerate(lines[1:], start=2) if raw != ""]
    fast = _loadtxt_rows([raw for _, raw in data], width)
    if fast is not None:
        return fast
    values = np.empty((len(data), width))
    row_ids: list[str] = []
    for r, (lineno, raw) in enumerate(data):
        cells = raw.split("\t")
        if len(cells) != width + 1:
            raise ParseError(f"expected {width + 1} columns, got {len(cells)}", line=lineno)
        row_ids.append(cells[0])
        try:
            values[r] = cells[1:]
        except ValueError as exc:
            raise ParseError(f"non-numeric cell in row '{cells[0]}': {exc}", line=lineno) from exc
    return row_ids, values


def read_table(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Column ids, row ids and values of an id-header TSV (counts, dissimilarities).

    The header is the literal ``id`` and then the column ids; the file must
    define at least one column and one row. Errors name the file.
    """
    lines = read_lines(path)
    with in_file(path):
        if not lines:
            raise ParseError("empty file", line=1)
        header = lines[0].split("\t")
        if header[0] != "id":
            raise ParseError(f"first header cell must be 'id', got '{header[0]}'", line=1)
        col_ids = header[1:]
        if not col_ids:
            raise ParseError("header defines no data columns", line=1)
        row_ids, values = parse_rows(lines, len(col_ids))
        if not row_ids:
            raise ParseError("file contains no data rows", line=2)
    return col_ids, row_ids, values


def write_table(path: str | Path, col_ids, row_ids, values: np.ndarray) -> None:
    """Write the id-header TSV that :func:`read_table` reads back exactly.

    ``values`` must be 2-D with one row per row id and one column per
    column id; anything else is rejected before the file is opened.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(row_ids), len(col_ids)):
        raise ValidationError(
            f"table values have shape {values.shape}, expected {len(row_ids)} x {len(col_ids)}"
        )
    check_cells(col_ids, "id")
    check_cells(row_ids, "id")
    float_cells = "\t".join([_NUMBER_FORMAT] * len(col_ids))
    integer_cells = "\t".join(["%d"] * len(col_ids))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\t" + "\t".join(col_ids) + "\n")
        for row_id, row in zip(row_ids, values):
            handle.write(f"{row_id}\t{_format_row(row, float_cells, integer_cells)}\n")


def read_count_matrix(path: str | Path, orientation: str = "samples") -> CountMatrix:
    """Read a count TSV into canonical samples-as-rows form.

    Parameters
    ----------
    path:
        TSV file with an ``id`` header row.
    orientation:
        "samples" when file rows are samples (canonical), "features" when
        file rows are features; the latter is transposed on load.
    """
    if orientation not in ("samples", "features"):
        raise ValidationError(f"unknown orientation '{orientation}'")
    col_ids, row_ids, values = read_table(path)
    with in_file(path):
        if orientation == "features":
            return CountMatrix(values.T, col_ids, row_ids)
        return CountMatrix(values, row_ids, col_ids)


def write_count_matrix(matrix: CountMatrix, path: str | Path) -> None:
    """Write a count matrix as TSV; re-reading reproduces it exactly."""
    write_table(path, matrix.feature_ids, matrix.sample_ids, matrix.values)


def read_two_column_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Read an (id, name) file, preserving order; rejects malformed rows."""
    lines = read_lines(path)
    pairs: list[tuple[str, str]] = []
    with in_file(path):
        for lineno, raw in enumerate(lines, start=1):
            if raw == "":
                continue
            cells = raw.split("\t")
            if len(cells) != 2:
                raise ParseError(f"expected 2 columns, got {len(cells)}", line=lineno)
            pairs.append((cells[0], cells[1]))
        if not pairs:
            raise ParseError("file contains no rows", line=1)
    return pairs


def write_two_column_tsv(path: str | Path, pairs) -> None:
    """Write (id, name) pairs, one line each, for :func:`read_two_column_tsv`."""
    pairs = list(pairs)
    check_cells([left for left, _ in pairs], "id")
    check_cells([right for _, right in pairs], "name")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{left}\t{right}\n" for left, right in pairs)


def read_label_map(path: str | Path) -> dict[str, str]:
    """A labels or partition file as an id -> name dict in file order; no id may appear twice."""
    by_id: dict[str, str] = {}
    pairs = read_two_column_tsv(path)
    with in_file(path):
        for sid, name in pairs:
            if sid in by_id:
                raise ValidationError(f"sample '{sid}' labeled more than once")
            by_id[sid] = name
    return by_id


def names_of(by_id: dict[str, str], ids) -> list[str]:
    """The name ``by_id`` gives each of ``ids``; an id it lacks is an error."""
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise ValidationError(f"no label for sample '{missing[0]}'")
    return [by_id[sid] for sid in ids]


def labeled_dataset(matrix: CountMatrix, by_id: dict[str, str]) -> LabeledDataset:
    """``matrix`` labeled by ``by_id``; classes are numbered by first appearance in
    ``by_id`` among the matrix's samples, and ids of no sample are ignored."""
    names = names_of(by_id, matrix.sample_ids)
    samples = set(matrix.sample_ids)
    index_of = first_appearance_index(name for sid, name in by_id.items() if sid in samples)
    labels = [index_of[name] for name in names]
    return LabeledDataset(matrix, labels, K=len(index_of), class_names=tuple(index_of))


def partition_of(names) -> Partition:
    """Cluster names (a list or dict view) as a partition, numbered by first appearance."""
    index_of = first_appearance_index(names)
    return Partition([index_of[name] for name in names], len(index_of))


def read_labels(path: str | Path, matrix: CountMatrix) -> LabeledDataset:
    """Attach a labels file to a matrix.

    Class names map to indices 1..K in order of first appearance in the
    file, among rows that name a sample of the matrix. Every sample in the
    matrix must be labeled exactly once; rows for other ids are ignored.
    """
    by_id = read_label_map(path)
    with in_file(path):
        return labeled_dataset(matrix, by_id)


def write_labels(path: str | Path, dataset: LabeledDataset) -> None:
    names = [dataset.class_names[k - 1] for k in dataset.labels]
    write_two_column_tsv(path, zip(dataset.matrix.sample_ids, names))


def write_partition(path: str | Path, ids, partition: Partition) -> None:
    write_two_column_tsv(path, [(sid, str(int(c))) for sid, c in zip(ids, partition.assignments)])
