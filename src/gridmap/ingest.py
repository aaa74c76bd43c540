"""CSV ingestion for meter voltages, coordinates, and transformer records.

File formats (all comma separated, one header row):

* voltages:     ``meter_id,<t0>,<t1>,...`` with one row per meter. Header
  cells after ``meter_id`` are timestamp labels and are kept verbatim. An
  empty cell marks a missing sample.
* locations:    ``meter_id,lat_deg,lon_deg``
* transformers: ``xfmr_id,lat_deg,lon_deg``
* ground truth: ``meter_id,xfmr_id``

Coordinates are degrees on disk and radians in memory. Voltages are per-unit.
Missing samples are filled per meter by linear interpolation over the sample
index, holding the nearest observed value at the ends. A meter missing more
than 20 percent of its samples is dropped with a warning instead of imputed.

Every file is streamed through ``csv.reader`` one row at a time. A voltage
row is converted in one call and goes through the per-cell parser only when
that fails or yields a non-finite value, so the panel costs about one N x T
float64 array in memory. Unreadable files, undecodable bytes and malformed
CSV raise InputError, as do bad cells; the first bad row in file order
decides the error.
"""
from __future__ import annotations

import array
import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

MAX_MISSING_FRACTION = 0.2


@dataclass
class MeterDataset:
    meter_ids: list[str]
    voltages: np.ndarray            # (N, T) per-unit, fully imputed
    timestamps: list[str]
    locations: np.ndarray | None = None   # (N, 2) radians, rows follow meter_ids
    n_imputed: int = 0
    dropped: list[str] = field(default_factory=list)

    @property
    def n_meters(self) -> int:
        return len(self.meter_ids)

    @property
    def n_samples(self) -> int:
        return self.voltages.shape[1]


@dataclass
class TransformerSet:
    xfmr_ids: list[str]
    locations: np.ndarray           # (k, 2) radians

    @property
    def n_transformers(self) -> int:
        return len(self.xfmr_ids)


@dataclass
class GroundTruth:
    """Meter-to-transformer assignment treated as the reference labeling."""

    mapping: dict[str, str]         # meter_id -> xfmr_id
    meter_ids: list[str]
    xfmr_ids: list[str]
    labels: np.ndarray              # (N,) index into xfmr_ids, aligned with meter_ids

    @property
    def k(self) -> int:
        return len(self.xfmr_ids)

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


@contextmanager
def _csv_rows(path):
    """Open a CSV file and yield its header row and a reader over the rest.

    The file is closed on leaving the block, also when a row raises.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            yield header, reader
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: malformed CSV: {exc}") from exc


def _parse_float(cell: str, path, what: str) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise InputError(f"{path}: bad {what} value {cell!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"{path}: non-finite {what} value {cell!r}")
    return value


def _parse_voltages(cells: list[str], path) -> np.ndarray:
    """One meter's samples as float64, with NaN for empty cells.

    ``float`` is what _parse_float calls, so the one-call conversion accepts
    exactly what the per-cell loop accepts; the loop runs only to mark empty
    cells or to raise the error for the first bad one.
    """
    try:
        row = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        pass
    else:
        if np.isfinite(row).all():
            return row
    return np.array(
        [math.nan if cell == "" else _parse_float(cell, path, "voltage") for cell in cells]
    )


def _load_coords(path) -> tuple[list[str], np.ndarray]:
    with _csv_rows(path) as (header, rows):
        if len(header) != 3:
            raise InputError(f"{path}: expected 3 columns, got {len(header)}")
        ids: list[str] = []
        coords = []
        for row in rows:
            if len(row) != 3:
                raise InputError(f"{path}: row with {len(row)} cells, expected 3")
            ids.append(row[0])
            lat = _parse_float(row[1], path, "latitude")
            lon = _parse_float(row[2], path, "longitude")
            if not (-90.0 <= lat <= 90.0):
                raise InputError(f"{path}: latitude {lat} out of [-90, 90] for {row[0]!r}")
            if not (-180.0 <= lon <= 180.0):
                raise InputError(f"{path}: longitude {lon} out of [-180, 180] for {row[0]!r}")
            coords.append((math.radians(lat), math.radians(lon)))
    if len(set(ids)) != len(ids):
        raise InputError(f"{path}: duplicate ids")
    return ids, np.asarray(coords, dtype=float).reshape(len(ids), 2)


def load_dataset(voltages_path, locations_path=None) -> MeterDataset:
    """Load a voltage panel and (optionally) meter coordinates.

    Returns a dataset whose voltage matrix is complete: missing cells have
    been linearly interpolated per meter, and meters with more than 20
    percent of samples missing have been dropped (a UserWarning names them).
    """
    with _csv_rows(voltages_path) as (header, rows):
        if len(header) < 3:
            raise InputError(f"{voltages_path}: need at least two sample columns")
        timestamps = header[1:]
        t = len(timestamps)

        ids: list[str] = []
        # grows in place, so the parsed panel is held once
        samples = array.array("d")
        for row in rows:
            if len(row) != t + 1:
                raise InputError(
                    f"{voltages_path}: row for {row[0] if row else '?'!r} has "
                    f"{len(row) - 1} samples, expected {t}"
                )
            ids.append(row[0])
            samples.frombytes(_parse_voltages(row[1:], voltages_path).tobytes())
    if len(set(ids)) != len(ids):
        raise InputError(f"{voltages_path}: duplicate meter ids")

    volts = np.frombuffer(samples, dtype=float).reshape(len(ids), t)
    missing = np.isnan(volts)
    keep = missing.mean(axis=1) <= MAX_MISSING_FRACTION
    dropped = [m for m, ok in zip(ids, keep) if not ok]
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} meter(s) with more than "
            f"{MAX_MISSING_FRACTION:.0%} missing samples: {', '.join(dropped)}"
        )
        ids = [m for m, ok in zip(ids, keep) if ok]
        volts = volts[keep]
        missing = missing[keep]

    n_imputed = int(missing.sum())
    if n_imputed:
        idx = np.arange(t, dtype=float)
        for i in np.flatnonzero(missing.any(axis=1)):
            obs = ~missing[i]
            # np.interp holds the nearest observed value beyond the ends
            volts[i, missing[i]] = np.interp(idx[missing[i]], idx[obs], volts[i, obs])

    if len(ids) < 2:
        raise InputError("need at least 2 meters after dropping incomplete rows")
    if t < 2:
        raise InputError("need at least 2 samples per meter")
    if not np.all(np.isfinite(volts)):
        raise InputError("voltages contain non-finite values after imputation")
    if not (np.all(volts > 0.0) and np.all(volts < 2.0)):
        raise InputError("per-unit voltages must lie strictly inside (0, 2)")

    locations = None
    if locations_path is not None:
        loc_ids, coords = _load_coords(locations_path)
        pos = {m: i for i, m in enumerate(loc_ids)}
        missing_ids = [m for m in ids if m not in pos]
        if missing_ids:
            raise InputError(
                f"{locations_path}: no coordinates for meter(s) {', '.join(missing_ids)}"
            )
        locations = coords[[pos[m] for m in ids]]

    return MeterDataset(
        meter_ids=ids,
        voltages=volts,
        timestamps=list(timestamps),
        locations=locations,
        n_imputed=n_imputed,
        dropped=dropped,
    )


def load_transformers(path) -> TransformerSet:
    ids, coords = _load_coords(path)
    if not ids:
        raise InputError(f"{path}: no transformers")
    return TransformerSet(xfmr_ids=ids, locations=coords)


def load_ground_truth(path, meters, xfmrs: TransformerSet) -> GroundTruth:
    """Load the reference meter-to-transformer assignment.

    ``meters`` may be a MeterDataset or any sequence of meter ids; every
    meter must appear exactly once, every transformer id must exist, and
    every transformer must serve at least one meter.
    """
    meter_ids = list(meters.meter_ids) if hasattr(meters, "meter_ids") else list(meters)
    mapping: dict[str, str] = {}
    with _csv_rows(path) as (header, rows):
        if len(header) != 2:
            raise InputError(f"{path}: expected 2 columns, got {len(header)}")
        for row in rows:
            if len(row) != 2:
                raise InputError(f"{path}: row with {len(row)} cells, expected 2")
            if row[0] in mapping:
                raise InputError(f"{path}: duplicate meter id {row[0]!r}")
            mapping[row[0]] = row[1]

    known = set(xfmrs.xfmr_ids)
    xfmr_index = {x: j for j, x in enumerate(xfmrs.xfmr_ids)}
    labels = np.empty(len(meter_ids), dtype=int)
    for i, m in enumerate(meter_ids):
        if m not in mapping:
            raise InputError(f"{path}: meter {m!r} has no assignment")
        x = mapping[m]
        if x not in known:
            raise InputError(f"{path}: unknown transformer id {x!r} for meter {m!r}")
        labels[i] = xfmr_index[x]

    counts = np.bincount(labels, minlength=len(xfmrs.xfmr_ids))
    empty = [x for x, c in zip(xfmrs.xfmr_ids, counts) if c == 0]
    if empty:
        raise InputError(f"{path}: transformer(s) with no meters: {', '.join(empty)}")

    return GroundTruth(
        mapping={m: mapping[m] for m in meter_ids},
        meter_ids=meter_ids,
        xfmr_ids=list(xfmrs.xfmr_ids),
        labels=labels,
    )


def save_dataset(ds: MeterDataset, voltages_path, locations_path=None) -> None:
    """Write a dataset back to CSV in the format load_dataset reads."""
    with open(voltages_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["meter_id", *ds.timestamps])
        for i, m in enumerate(ds.meter_ids):
            writer.writerow([m, *map(repr, ds.voltages[i].tolist())])
    if locations_path is not None:
        if ds.locations is None:
            raise InputError("dataset has no locations to save")
        _save_coords(ds.meter_ids, ds.locations, "meter_id", locations_path)


def save_transformers(xfmrs: TransformerSet, path) -> None:
    _save_coords(xfmrs.xfmr_ids, xfmrs.locations, "xfmr_id", path)


def save_ground_truth(truth: GroundTruth, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["meter_id", "xfmr_id"])
        for m in truth.meter_ids:
            writer.writerow([m, truth.mapping[m]])


def _save_coords(ids, coords, id_col, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_col, "lat_deg", "lon_deg"])
        for i, name in enumerate(ids):
            writer.writerow(
                [name, repr(math.degrees(coords[i, 0])), repr(math.degrees(coords[i, 1]))]
            )
