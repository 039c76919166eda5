"""File formats: dataset ingestion, partition / truth / blocks / report
artifacts, and flat key=value config files."""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
import shutil
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import Attribute, ERError, Record

# only save_blocks' annotation names Block; importing blocking at run time
# would close the cycle similarity -> dataio -> blocking -> similarity
if TYPE_CHECKING:
    from .blocking import Block


class DuplicateId(ERError):
    pass


class MissingHeader(ERError):
    pass


class MissingField(ERError):
    pass


class ExtraField(ERError):
    pass


class EmptyFile(ERError):
    pass


class DuplicateColumn(ERError):
    pass


@dataclass
class Dataset:
    records: dict[str, Record]
    ground_truth: dict[str, str] | None = None

    def __post_init__(self):
        if self.ground_truth is not None:
            missing = [r for r in self.records if r not in self.ground_truth]
            if missing:
                raise ERError(
                    f"ground truth does not cover record id {missing[0]!r}"
                )


def ingest(
    path: str,
    id_column: str = "id",
    truth_column: str | None = None,
    delimiter: str = ",",
) -> Dataset:
    """Read a delimited file with a header into a Dataset.

    Every column other than the id and truth columns becomes a string
    attribute of its header name. A short row's missing values are empty; a
    row with more fields than the header is an error. The truth column, when
    named, is stripped from the attributes and returned as ground truth.
    Blank lines are skipped; an error names the file line of its row. A
    delimiter other than one character is a ValueError.
    """
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, not {delimiter!r}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        if id_column not in header:
            raise MissingHeader(f"{path}: no {id_column!r} column in header")
        if truth_column is not None and truth_column not in header:
            raise MissingHeader(f"{path}: no {truth_column!r} column in header")
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise DuplicateColumn(f"{path}: header names column {repeated[0]!r} twice")
        id_idx = header.index(id_column)
        truth_idx = header.index(truth_column) if truth_column else None
        # each column's Attribute per distinct value, one object shared by
        # every record that holds it
        attr_columns = [
            (i, name, {})
            for i, name in enumerate(header)
            if i != id_idx and i != truth_idx
        ]

        records: dict[str, Record] = {}
        truth: dict[str, str] = {}
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) > len(header):
                raise ExtraField(
                    f"{path} line {line}: {len(row)} fields, header has {len(header)}"
                )
            if id_idx >= len(row):
                raise MissingField(f"{path} line {line}: no id")
            if truth_idx is not None and truth_idx >= len(row):
                raise MissingField(f"{path} line {line}: no {truth_column} value")
            rid = row[id_idx]
            if rid in records:
                raise DuplicateId(f"{path} line {line}: duplicate id {rid!r}")
            attributes = []
            for i, name, interned in attr_columns:
                value = row[i] if i < len(row) else ""
                attribute = interned.get(value)
                if attribute is None:
                    attribute = interned[value] = Attribute(name, value)
                attributes.append(attribute)
            records[rid] = Record(rid, tuple(attributes))
            if truth_idx is not None:
                truth[rid] = row[truth_idx]
    if not records:
        raise EmptyFile(f"{path}: no data rows")
    return Dataset(records, truth or None)


def atomic_write(path: str, content: str) -> None:
    """Write a file fully or not at all (temp file + atomic rename), as UTF-8
    with ``content``'s line ends kept, and with the mode ``open(path, "w")``
    gives: an existing file's, else 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            fh.write(content)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_rows(path: str, rows) -> None:
    """Write rows as CSV, quoting fields as ``csv.reader`` reads them back."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    atomic_write(path, buf.getvalue())


def save_dataset(path: str, records: dict[str, Record], truth=None) -> None:
    attr_names = list(
        dict.fromkeys(
            a.name for r in records.values() for a in r.attributes
        )
    )
    rows = [["id"] + attr_names + (["entity_id"] if truth else [])]
    for rid in sorted(records):
        values = {a.name: a.value for a in records[rid].attributes}
        row = [rid] + [values.get(name, "") for name in attr_names]
        if truth:
            row.append(truth[rid])
        rows.append(row)
    save_rows(path, rows)


def save_labels(path: str, labels: dict[str, str], value_name: str) -> None:
    rows = [["record_id", value_name]]
    rows.extend([rid, labels[rid]] for rid in sorted(labels))
    save_rows(path, rows)


def load_labels(path: str) -> dict[str, str]:
    """Read a ``record_id,<label>`` file: a header of exactly those two
    columns, then one two-field row per record id. Blank lines are skipped;
    an error names the file line of its row."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        if not header or header[0] != "record_id":
            raise MissingHeader(f"{path}: expected a record_id column first")
        if len(header) != 2:
            raise ExtraField(
                f"{path}: line {reader.line_num}: header names {len(header)} "
                "columns, expected record_id and one label column"
            )
        out: dict[str, str] = {}
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) < 2:
                raise MissingField(f"{path}: line {line}: no cluster id")
            if len(row) > 2:
                raise ExtraField(f"{path}: line {line}: {len(row)} fields, expected 2")
            if row[0] in out:
                raise DuplicateId(
                    f"{path}: line {line}: duplicate record id {row[0]!r}"
                )
            out[row[0]] = row[1]
    if not out:
        raise EmptyFile(f"{path}: no data rows")
    return out


def save_blocks(path: str, blocks: list[Block]) -> None:
    rows = [["block_id", "record_id"]]
    for block in blocks:
        rows.extend([block.block_id, rid] for rid in block.members)
    save_rows(path, rows)


def save_report(path: str, report: dict) -> None:
    atomic_write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_config(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment line. A
    leading UTF-8 byte-order mark is dropped, as the CSV readers drop it."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ERError(f"{path} line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
