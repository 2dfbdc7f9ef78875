"""Column-labeled numeric datasets: CSV ingestion and unit scaling."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, SchemaError

__all__ = ["Dataset", "load_csv", "scale_unit"]


@dataclass
class Dataset:
    """Equal-length numeric columns with a designated target column."""

    name: str
    columns: dict
    target: str
    label: str | None = None  # "valid" | "invalid" ground truth, if known
    error_kind: str | None = None

    def __post_init__(self):
        if self.target not in self.columns:
            raise SchemaError(f"target column {self.target!r} not present")
        lengths = {k: len(v) for k, v in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        cols = {}
        for k, v in self.columns.items():
            arr = np.asarray(v, dtype=float)
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise DataError(
                    f"non-finite value in column {k!r}", row=int(bad[0]), column=k
                )
            cols[k] = arr
        self.columns = cols

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def feature_names(self) -> list:
        return [c for c in self.columns if c != self.target]

    @property
    def y(self) -> np.ndarray:
        return self.columns[self.target]

    def select_rows(self, index) -> "Dataset":
        cols = {k: v[index] for k, v in self.columns.items()}
        return replace(self, columns=cols)

    def to_csv_text(self) -> str:
        """Deterministic CSV serialization (LF, repr-exact floats)."""
        buf = io.StringIO()
        names = list(self.columns)
        buf.write(",".join(names) + "\n")
        arrays = [self.columns[n] for n in names]
        for i in range(self.n_rows):
            buf.write(",".join(repr(float(a[i])) for a in arrays) + "\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def _read_text(path, newline=None) -> str:
    """The text of a UTF-8 file, its line ends translated as ``open`` does
    for ``newline``; DataError naming the file when its bytes are not UTF-8."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_csv(path, target: str | None = None) -> Dataset:
    """Load a headered CSV of IEEE doubles, named by its path; the target is
    the header's last column unless ``target`` names one.

    Raises DataError naming the file when it is not UTF-8, DataError with
    (row, column) for unparseable or non-finite cells and SchemaError for a
    repeated column name, a missing target, an empty header or an empty
    table.
    """
    with io.StringIO(_read_text(path, newline=""), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header:
            raise SchemaError(f"{path}: empty header row")
        if target is None:
            target = header[-1]
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise SchemaError(f"{path}: column {repeated[0]!r} appears more than once in the header")
        if target not in header:
            raise SchemaError(f"{path}: target column {target!r} not in header {header}")
        rows = []
        for r, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}", row=r)
            parsed = []
            for c, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {cell!r}", row=r, column=header[c]
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: non-finite cell {cell!r}", row=r, column=header[c])
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    columns = {h: data[:, j] for j, h in enumerate(header)}
    return Dataset(name=str(path), columns=columns, target=target)


def scale_unit(data: Dataset, columns) -> Dataset:
    """Scale the named columns to [0, 1] individually; a constant column maps to 0."""
    new_cols = dict(data.columns)
    for c in columns:
        if c not in data.columns:
            raise SchemaError(f"column {c!r} not present")
        col = data.columns[c]
        lo, hi = float(col.min()), float(col.max())
        if hi > lo:
            new_cols[c] = (col - lo) / (hi - lo)
        else:
            new_cols[c] = np.zeros_like(col)
    return replace(data, columns=new_cols)
