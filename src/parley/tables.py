"""Delimited-table I/O with provenance stamping.

Every emitted table starts with a comment line carrying the engine version
and the config hash that produced it; readers can demand a matching hash so
artifacts from different configurations are never silently mixed.
"""

from __future__ import annotations

import csv
from pathlib import Path

from . import __version__
from .errors import ArtifactMismatchError, SchemaError


def provenance_line(config_hash: str) -> str:
    """The stamp every artifact starts with: engine version and config hash."""
    return f"# parley={__version__} config={config_hash}"


def parse_provenance(
    path: str | Path, line: str, expect_config_hash: str | None = None
) -> dict:
    """The key=value fields of a provenance line ({} when ``line`` is not one).

    When a config hash is expected, an artifact stamped with any other hash,
    or with none, is refused.
    """
    meta = {}
    if line.startswith("#"):
        for token in line.lstrip("#").split():
            if "=" in token:
                key, value = token.split("=", 1)
                meta[key] = value
    if expect_config_hash is not None and meta.get("config") != expect_config_hash:
        raise ArtifactMismatchError(
            f"{path} was produced under config {meta.get('config')!r}, "
            f"expected {expect_config_hash!r}; rerun upstream stages"
        )
    return meta


def write_table(
    path: str | Path,
    columns: tuple[str, ...] | list[str],
    rows: list[dict],
    config_hash: str,
) -> None:
    """Write a stamped CSV; a missing or None value is a blank cell, and
    columns blank in every row are omitted and noted in the provenance line."""
    path = Path(path)
    kept, omitted = [], []
    for col in columns:
        if rows and all(row.get(col) in (None, "") for row in rows):
            omitted.append(col)
        else:
            kept.append(col)
    with open(path, "w", newline="") as fh:
        stamp = provenance_line(config_hash)
        if omitted:
            stamp += f" omitted_empty={','.join(omitted)}"
        fh.write(stamp + "\n")
        writer = csv.DictWriter(fh, fieldnames=kept)
        writer.writeheader()
        for row in rows:
            # the csv module writes None as an empty string
            writer.writerow({col: row.get(col) for col in kept})


def read_table(
    path: str | Path, expect_config_hash: str | None = None
) -> tuple[dict, list[dict]]:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"table not found: {path}")
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("#"):
            raise SchemaError(f"{path}: missing provenance line")
        meta = parse_provenance(path, first, expect_config_hash)
        reader = csv.DictReader(fh)
        rows = list(reader)
    return meta, rows
