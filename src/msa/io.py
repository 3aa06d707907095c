"""Reading and writing feature files, label files and dataset directories.

Two feature-file formats are supported and auto-detected:

* CSV: one sample per row, d numeric columns, comma separated; blank lines
  (empty or whitespace only) are skipped and text after ``#`` is a comment.
  The first line that is neither blank nor comment-only is a header (and
  skipped) when, with its comment removed, none of its tokens parses as a
  number; a line with any numeric token is data, so ``1,,3`` or ``NA,2,3``
  first fails at its bad cell rather than being skipped.
* Binary: magic bytes ``MSA1``, then N and d as little-endian uint32 (both
  at least 1), then N * d little-endian float64 values in row-major order,
  and nothing after them.

A label file holds one integer per line, aligned with the feature rows.
Text files are read as UTF-8; a leading byte-order mark is skipped.

A dataset directory holds one feature file and one label file per domain,
named ``<domain>_<kind>.<ext>`` and ``<domain>_<kind>.labels`` where kind
names the feature type (for example ``surf`` or ``decaf``).
"""

from __future__ import annotations

import itertools
import os
import struct
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .exceptions import DataFileError

MAGIC = b"MSA1"


def _detect_header(first_line: str) -> bool:
    """Whether the line is a header: no cell of it parses as a number."""
    for token in first_line.split(","):
        try:
            float(token.strip())
        except ValueError:
            continue
        return False
    return True


def _load_csv(path: Path) -> np.ndarray:
    # skip counts the leading blank and comment lines, plus the header if
    # there is one.  Each line is judged with its comment cut off, as
    # np.loadtxt will read it.
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0]
            if text.strip():
                skip = lineno if _detect_header(text) else lineno - 1
                break
        else:
            raise DataFileError("file is empty", path=path)
    # np.loadtxt skips empty lines and '#' comments but rejects a line of
    # whitespace, so blank lines are dropped before it sees them.
    with open(path, "r", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lines = filter(str.strip, itertools.islice(fh, skip, None))
        try:
            data = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError:
            _raise_bad_line(path, skip)
    if data.size == 0:
        raise DataFileError("no data rows found", path=path)
    if not np.all(np.isfinite(data)):
        raise DataFileError("file contains non-finite values", path=path)
    return data


def _raise_bad_line(path: Path, skip: int) -> NoReturn:
    """Name the first bad cell or ragged row of a CSV np.loadtxt rejected.

    Each line and cell is judged by np.loadtxt itself, so this only locates
    the fault; it never reads data of its own.
    """

    def parses(text: str, size: int | None = None) -> np.ndarray | None:
        try:
            values = np.loadtxt([text], delimiter=",", ndmin=1)
        except ValueError:
            return None
        return values if size is None or values.size == size else None

    width = None
    with open(path, "r", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lineno, line in enumerate(fh, start=1):
            if lineno <= skip or not line.strip():
                continue
            row = parses(line)
            if row is None:
                cell = next(
                    (c for c in line.split(",") if parses(c, size=1) is None),
                    line,
                )
                raise DataFileError(
                    f"not a number: {cell.strip()!r}", path=path, line=lineno
                )
            if row.size == 0:
                continue  # a comment line
            if width is None:
                width = row.size
            elif row.size != width:
                raise DataFileError(
                    f"row has {row.size} columns, expected {width}",
                    path=path,
                    line=lineno,
                )
    raise DataFileError("file could not be parsed as CSV", path=path)


def _load_binary(path: Path) -> np.ndarray:
    header = struct.calcsize("<4sII")
    with open(path, "rb") as fh:
        head = fh.read(header)
        if len(head) < header:
            raise DataFileError("truncated header", path=path)
        magic, n, d = struct.unpack("<4sII", head)
        if magic != MAGIC:
            raise DataFileError(f"bad magic bytes {magic!r}", path=path)
        if n == 0 or d == 0:
            raise DataFileError(f"header declares {n} x {d} samples; no data", path=path)
        expected, size = header + n * d * 8, os.fstat(fh.fileno()).st_size
        if size != expected:
            raise DataFileError(
                f"expected {expected} bytes for {n} x {d} float64 samples, got {size}",
                path=path,
            )
        data = np.fromfile(fh, dtype="<f8", count=n * d)
    if data.size != n * d:
        raise DataFileError(
            f"expected {n * d} float64 values, read {data.size}", path=path
        )
    data = data.reshape(n, d).astype(np.float64, copy=False)
    if not np.all(np.isfinite(data)):
        raise DataFileError("file contains non-finite values", path=path)
    return data


def load_features(path) -> np.ndarray:
    """Load an (N, d) feature array from a CSV or binary feature file."""
    path = Path(path)
    if not path.is_file():
        raise DataFileError("no such file", path=path)
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        return _load_binary(path)
    return _load_csv(path)


def save_features_csv(path, data) -> None:
    """Write an (N, d) array as a CSV feature file."""
    np.savetxt(Path(path), np.asarray(data, dtype=np.float64), delimiter=",")


def save_features_binary(path, data) -> None:
    """Write an (N, d) array in the binary feature format."""
    arr = np.ascontiguousarray(data, dtype="<f8")
    n, d = arr.shape
    with open(Path(path), "wb") as fh:
        fh.write(struct.pack("<4sII", MAGIC, n, d))
        fh.write(arr.tobytes())


def load_labels(path) -> np.ndarray:
    """Load a length-N integer label vector, one label per line."""
    path = Path(path)
    if not path.is_file():
        raise DataFileError("no such file", path=path)
    labels = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                labels.append(int(text))
            except ValueError:
                raise DataFileError(
                    f"not an integer label: {text!r}", path=path, line=lineno
                ) from None
    if not labels:
        raise DataFileError("no labels found", path=path)
    return np.array(labels, dtype=np.int64)


def save_labels(path, labels) -> None:
    """Write integer labels one per line."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        for label in np.asarray(labels, dtype=np.int64):
            fh.write(f"{int(label)}\n")


def discover_domains(directory, kind: str) -> dict[str, tuple[Path, Path]]:
    """Find the domains of a dataset directory for one feature kind.

    Args:
        directory: dataset directory.
        kind: feature kind named in the files, e.g. ``surf``.

    Returns:
        Mapping of domain name to (feature file, label file), sorted by name.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DataFileError("no such directory", path=directory)
    suffix = f"_{kind}"
    domains: dict[str, tuple[Path, Path]] = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file() or path.suffix == ".labels":
            continue
        if not path.stem.endswith(suffix):
            continue
        domain = path.stem[: -len(suffix)]
        labels = directory / f"{path.stem}.labels"
        if not labels.is_file():
            raise DataFileError(
                f"domain {domain!r} has features but no label file "
                f"{labels.name}",
                path=directory,
            )
        if domain in domains:
            raise DataFileError(
                f"domain {domain!r} has more than one feature file",
                path=directory,
            )
        domains[domain] = (path, labels)
    if not domains:
        raise DataFileError(
            f"no feature files matching '*_{kind}.*' found", path=directory
        )
    return domains
