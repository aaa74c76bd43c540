"""CSV ingestion for meter voltages, coordinates, and transformer records.

File formats (all comma separated, one header row):

* voltages:     ``meter_id,<t0>,<t1>,...`` with one row per meter. Header
  cells after ``meter_id`` are timestamp labels and are kept verbatim. An
  empty cell marks a missing sample.
* locations:    ``meter_id,lat_deg,lon_deg``
* transformers: ``xfmr_id,lat_deg,lon_deg``
* ground truth: ``meter_id,xfmr_id``

Coordinates are degrees on disk and radians in memory. Voltages are per-unit,
strictly inside VOLTAGE_RANGE_PU, (0, 2); the simulator holds to it too.
Missing samples are filled per meter by linear interpolation over the sample
index, holding the nearest observed value at the ends. A meter missing more
than 20 percent of its samples is dropped with a warning instead of imputed.

Every file is streamed one line at a time. The voltage panel's numeric
block is parsed by one ``np.loadtxt`` call fed from a generator over the
open file: the generator splits off each meter id, writes empty cells as
``nan`` and counts them, and refuses a line that is blank, starts with a
quote, has the wrong number of fields or holds a character that numpy reads
as a separator but ``float`` does not. That result is kept only if it has
one row per line, a NaN for each empty cell and nothing else non-finite.
Otherwise the file is parsed again one cell at a time with ``float``, the
reference, which decides every error message. Quoted ids (csv.writer quotes
an id that holds a comma, a quote or a line break), quoted numeric cells,
digits with underscores and non-ASCII digits take that path; every panel
save_dataset writes with plain ids, empty cells included, does not. Either
way the panel costs about one N x T float64 array in memory. Unreadable
files, undecodable bytes and malformed CSV raise InputError, as do bad
cells; the first bad row in file order decides the error.

``write_table`` writes every table of an id followed by floats: the panel,
both coordinate files, and the command line's matrix dumps and eigs.csv.
"""
from __future__ import annotations

import array
import csv
import itertools
import math
import os
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

MAX_MISSING_FRACTION = 0.2
VOLTAGE_RANGE_PU = (0.0, 2.0)  # open; every per-unit voltage, loaded or simulated

# numpy's float parser strips these as whitespace; float() rejects them
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


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


@contextmanager
def _csv_file(path):
    """Open a CSV file and yield its header row and the file, positioned after it.

    The file is closed on leaving the block, also when a row raises.
    """
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InputError(f"{path}: empty file")
            yield header, fh
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: malformed CSV: {exc}") from exc


def check_voltages(volts, what: str, error=InputError) -> None:
    """Raise ``error`` unless every entry of ``volts`` lies strictly inside VOLTAGE_RANGE_PU."""
    lo, hi = VOLTAGE_RANGE_PU
    if not (np.all(volts > lo) and np.all(volts < hi)):  # NaN fails both
        raise error(f"{what} must lie strictly inside ({lo:g}, {hi:g})")


def _parse_float(cell: str, path, what: str) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise InputError(f"{path}: bad {what} value {cell!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"{path}: non-finite {what} value {cell!r}")
    return value


def _loadtxt_panel(fh, t: int):
    """The ids and (n, t) samples of the rows left in ``fh``, or None.

    One np.loadtxt call parses every row; empty cells come back as NaN.
    None means _per_cell_panel must decide: a line was refused (one that
    starts with a quoted id among them), loadtxt raised, or the result holds
    a NaN or infinity that no empty cell explains.
    """
    ids: list[str] = []
    n_empty = 0
    limit = csv.field_size_limit()

    def numeric_rows():
        nonlocal n_empty
        for line in fh:
            line = line.rstrip("\r\n")
            meter_id, _, cells = line.partition(",")
            if (
                not line
                or line.startswith('"')  # a quoted id, which csv.reader unquotes
                or cells.count(",") != t - 1
                or any(c in cells for c in _NUMPY_ONLY_SPACE)
                # csv.reader rejects a field longer than its limit
                or len(meter_id) > limit
                or (len(cells) > limit and max(map(len, cells.split(","))) > limit)
            ):
                raise ValueError("line left to the per-cell parser")
            if cells.startswith(",") or cells.endswith(",") or ",," in cells:
                # one pass fills every other cell of a run of empty ones
                filled = f",{cells},".replace(",,", ",nan,").replace(",,", ",nan,")
                n_empty += (len(filled) - len(cells) - 2) // 3
                cells = filled[1:-1]
            ids.append(meter_id)
            yield cells

    rows = numeric_rows()
    try:
        first = next(rows, None)
        if first is None:   # loadtxt would warn that it read no data
            return None
        volts = np.loadtxt(
            itertools.chain([first], rows), delimiter=",", comments=None, dtype=float, ndmin=2
        )
    except ValueError:
        return None
    # the NaNs written for empty cells must be the only non-finite values
    if volts.shape != (len(ids), t) or np.isfinite(volts).sum() != volts.size - n_empty:
        return None
    return ids, volts


def _per_cell_panel(rows, t: int, path):
    """The ids and (n, t) samples of ``rows``, parsed one cell at a time.

    The reference for _loadtxt_panel: it raises the error for the first bad
    row in file order.
    """
    ids: list[str] = []
    # grows in place, so the parsed panel is held once
    samples = array.array("d")
    for row in rows:
        if len(row) != t + 1:
            raise InputError(
                f"{path}: row for {row[0] if row else '?'!r} has "
                f"{len(row) - 1} samples, expected {t}"
            )
        ids.append(row[0])
        samples.extend(
            math.nan if cell == "" else _parse_float(cell, path, "voltage") for cell in row[1:]
        )
    return ids, np.frombuffer(samples, dtype=float).reshape(len(ids), t)


def _load_coords(path) -> tuple[list[str], np.ndarray]:
    with _csv_file(path) as (header, fh):
        if len(header) != 3:
            raise InputError(f"{path}: expected 3 columns, got {len(header)}")
        ids: list[str] = []
        coords = []
        for row in csv.reader(fh):
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
    with _csv_file(voltages_path) as (header, fh):
        if len(header) < 3:
            raise InputError(f"{voltages_path}: need at least two sample columns")
        timestamps = header[1:]
        t = len(timestamps)
        panel = _loadtxt_panel(fh, t)
    if panel is None:
        with _csv_file(voltages_path) as (_, fh):
            panel = _per_cell_panel(csv.reader(fh), t, voltages_path)
    ids, volts = panel
    if len(set(ids)) != len(ids):
        raise InputError(f"{voltages_path}: duplicate meter ids")

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
    check_voltages(volts, "per-unit voltages")

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
    with _csv_file(path) as (header, fh):
        if len(header) != 2:
            raise InputError(f"{path}: expected 2 columns, got {len(header)}")
        for row in csv.reader(fh):
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


def _no_truncate(path, flags):
    # open()'s own flags (O_CLOEXEC, O_BINARY on Windows) and mode pass through
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def open_output(path):
    """Open the output file ``path`` for writing, as a ``with`` block.

    Every file the package and its command line write goes through here,
    so a path that cannot be written is bad input (InputError) that names
    it, not an OSError.

    An existing file is rewritten in place: it is opened without
    truncation, overwritten from its start, and a regular file is cut at
    the last byte written when the block ends, also when the block raises.
    So the file keeps its inode, mode and hard links, a symlink at ``path``
    is written through and stays a symlink, and the bytes are those a fresh
    write gives. A FIFO, pipe or character device such as /dev/null is never
    truncated. Truncating on open freed the old blocks first, and on ext4
    mounted with ``discard`` that blocked for 50-65 ms per file, whatever
    its size; a rewrite that shrinks the file still frees blocks and waits.

    Nothing is fsynced, before or after. The one difference after a power
    cut in mid-rewrite: the file may hold old bytes after the new ones,
    where truncation on open left a short file.
    """
    try:
        fh = open(path, "w", newline="", opener=_no_truncate)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()  # flushes, then cuts at the current position


def _csv_field(text: str) -> str:
    """``text`` as a field of csv.writer's default dialect: quoted, with
    its quotes doubled, only if it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, header, ids, matrix) -> None:
    """Write ``header``, then each id followed by its row of ``matrix``: the
    bytes ``csv.writer`` would write with each value as its ``repr``, a row
    joined as one string."""
    with open_output(path) as fh:
        csv.writer(fh).writerow(header)
        for name, row in zip(ids, matrix):
            fh.write(f"{_csv_field(name)},{','.join(map(repr, row.tolist()))}\r\n")


def save_dataset(ds: MeterDataset, voltages_path, locations_path=None) -> None:
    """Write a dataset back to CSV in the format load_dataset reads."""
    write_table(voltages_path, ["meter_id", *ds.timestamps], ds.meter_ids, ds.voltages)
    if locations_path is not None:
        if ds.locations is None:
            raise InputError("dataset has no locations to save")
        write_table(locations_path, ["meter_id", "lat_deg", "lon_deg"], ds.meter_ids,
                    np.degrees(ds.locations))


def save_transformers(xfmrs: TransformerSet, path) -> None:
    write_table(path, ["xfmr_id", "lat_deg", "lon_deg"], xfmrs.xfmr_ids,
                np.degrees(xfmrs.locations))


def save_ground_truth(truth: GroundTruth, path) -> None:
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["meter_id", "xfmr_id"])
        for m in truth.meter_ids:
            writer.writerow([m, truth.mapping[m]])
