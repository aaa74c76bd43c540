"""Synthetic radial-feeder generator with a linearized resistive voltage model.

A feeder has one substation at fixed per-unit voltage, ``k`` service
transformers, and a group of meters behind each transformer. Voltage at a
meter is the substation voltage minus the resistive drop through its
transformer (proportional to the group's total load) minus the drops along
the secondary conductor segments between the transformer and the meter,
plus i.i.d. measurement noise:

    v_i(t) = v_sub - r_xfmr_j * sum_{m in group j} P_m(t)
                   - sum_{segments s on path to i} r_line * (load downstream of s)(t)
                   + eps_i(t)

The secondary is a chain by default (meters in series along one conductor)
or a star (each meter on its own segment). All randomness comes from a
single seed, so a spec reproduces its dataset bit for bit.

``generate_profiles(spec)`` returns the (N, T) loads P. ``simulate_voltages``
refuses loads of another shape or below the spec's -der_injection_pu, and
voltages outside the loader's range (0, 2), so every panel it writes loads.

Profiles and placements are built for all meters at once with array
operations. The draws keep meter order and each row keeps the operation
order of a meter-by-meter build, so the bytes are those of the loops kept
in ``tests/reference_feeder_sim.py``.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, asdict, fields
from datetime import datetime, timedelta

import numpy as np

from .errors import InputError, NumericalError
from .geo import EARTH_RADIUS_KM
from .ingest import GroundTruth, MeterDataset, TransformerSet, check_voltages

SECONDARY_KINDS = ("chain", "star")
MAX_REDRAWS = 100  # per meter, before a spec counts as unable to separate


def _is_a(kind, x) -> bool:
    """``x`` is a number of ``kind``, numpy's included, and not a boolean."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _per_xfmr(spec, name: str, kind, what: str) -> list:
    """Field ``name`` of ``spec``: one ``kind`` for every transformer, or a list of them."""
    value = getattr(spec, name)
    if _is_a(kind, value):
        return [value] * spec.k
    if not isinstance(value, (list, tuple, np.ndarray)) or not all(_is_a(kind, x) for x in value):
        raise InputError(f"{name} must be {what}, got {value!r}")
    return list(value)


def _coordinates(name: str, value) -> np.ndarray:
    """Field ``name`` of a spec: a list of (latitude, longitude) number
    pairs, as a float (n, 2) array."""
    what = f"{name} must be a list of (latitude, longitude) number pairs"
    sequence = (list, tuple, np.ndarray)
    if not isinstance(value, sequence):
        raise InputError(f"{what}, got {value!r}")
    for i, row in enumerate(value):
        if not (isinstance(row, sequence) and len(row) == 2
                and all(_is_a(numbers.Real, x) for x in row)):
            raise InputError(f"{what}; entry {i} is {row!r}")
    return np.array(value, dtype=float).reshape(-1, 2)


@dataclass
class FeederSpec:
    k: int
    meters_per_xfmr: list[int]
    xfmr_impedance_pu: list[float]
    line_resistance_pu: float
    T: int
    noise_std_pu: float
    seed: int
    substation_voltage_pu: float = 1.0
    secondary: str = "chain"
    # load profile shape
    base_load_pu: float = 0.01
    load_amp_pu: float = 0.01
    load_noise_pu: float = 0.0
    der_injection_pu: float = 0.0
    samples_per_day: int = 96
    # geographic placement; explicit coordinates (radians) override the grid
    xfmr_locations: np.ndarray | None = None
    meter_locations: np.ndarray | None = None
    xfmr_spacing_km: float = 1.0
    meter_radius_km: float = 0.05
    origin_lat_deg: float = 40.0
    origin_lon_deg: float = -105.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_a(numbers.Integral, value):
                raise InputError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_a(numbers.Real, value):
                raise InputError(f"{f.name} must be a number, got {value!r}")
        counts = _per_xfmr(self, "meters_per_xfmr", numbers.Integral, "integers")
        self.meters_per_xfmr = [int(n) for n in counts]
        impedances = _per_xfmr(self, "xfmr_impedance_pu", numbers.Real, "numbers")
        self.xfmr_impedance_pu = [float(r) for r in impedances]
        for name in ("xfmr_locations", "meter_locations"):
            if getattr(self, name) is not None:
                setattr(self, name, _coordinates(name, getattr(self, name)))
        self.validate()

    @property
    def n_meters(self) -> int:
        return sum(self.meters_per_xfmr)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if ("float" in f.type or "ndarray" in f.type) and value is not None:
                if not np.isfinite(value).all():
                    raise InputError(f"{f.name} must be finite")
        if self.k < 1:
            raise InputError("k must be at least 1")
        if len(self.meters_per_xfmr) != self.k:
            raise InputError("meters_per_xfmr must have one entry per transformer")
        if any(n < 1 for n in self.meters_per_xfmr):
            raise InputError("every transformer needs at least one meter")
        if len(self.xfmr_impedance_pu) != self.k:
            raise InputError("xfmr_impedance_pu must have one entry per transformer")
        if any(r < 0 for r in self.xfmr_impedance_pu) or self.line_resistance_pu < 0:
            raise InputError("resistances must be nonnegative")
        if self.T < 2:
            raise InputError("T must be at least 2")
        check_voltages(self.substation_voltage_pu, "substation_voltage_pu")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.noise_std_pu < 0 or self.load_noise_pu < 0:
            raise InputError("noise levels must be nonnegative")
        if self.der_injection_pu < 0:
            raise InputError("der_injection_pu must be nonnegative")
        if self.secondary not in SECONDARY_KINDS:
            raise InputError(f"secondary must be one of {SECONDARY_KINDS}")
        if self.samples_per_day < 1:
            raise InputError("samples_per_day must be positive")
        if not (-90.0 <= self.origin_lat_deg <= 90.0 and -180.0 <= self.origin_lon_deg <= 180.0):
            raise InputError("origin must lie in latitude [-90, 90] and longitude [-180, 180]")
        if self.meter_radius_km < 0 or self.xfmr_spacing_km <= 0:
            raise InputError("meter_radius_km must be nonnegative and xfmr_spacing_km positive")
        if self.xfmr_locations is not None and self.xfmr_locations.shape != (self.k, 2):
            raise InputError("xfmr_locations must be (k, 2)")
        n = self.n_meters
        if self.meter_locations is not None and self.meter_locations.shape != (n, 2):
            raise InputError("meter_locations must be (N, 2)")
        self._check_placement()

    def _check_placement(self) -> None:
        """Every coordinate the simulator can write must pass the loader's ranges."""
        xfmrs = self.xfmr_locations if self.xfmr_locations is not None else _xfmr_grid(self)
        if self.meter_locations is not None:
            meters = self.meter_locations
        else:
            # a meter lands within meter_radius_km of its transformer; these are
            # the extremes of _grid_locations' offsets, computed the same way
            meters = []
            dlat = self.meter_radius_km / EARTH_RADIUS_KM
            for lat, lon in xfmrs:
                dlon = self.meter_radius_km / (EARTH_RADIUS_KM * math.cos(lat))
                meters += [(lat - dlat, lon - dlon), (lat + dlat, lon + dlon)]
        for what, coords in (("transformer", xfmrs), ("meter", meters)):
            for lat, lon in coords:
                lat_deg, lon_deg = math.degrees(lat), math.degrees(lon)
                if not (-90.0 <= lat_deg <= 90.0 and -180.0 <= lon_deg <= 180.0):
                    raise InputError(
                        f"a {what} would be placed at latitude {lat_deg!r}, longitude "
                        f"{lon_deg!r}, outside [-90, 90] x [-180, 180]; move the origin "
                        f"or shrink the layout"
                    )

    def labels(self) -> np.ndarray:
        """Transformer index of each meter, groups laid out contiguously."""
        return np.repeat(np.arange(self.k), self.meters_per_xfmr)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        for key in ("xfmr_locations", "meter_locations"):
            if d[key] is not None:
                d[key] = [[math.degrees(a), math.degrees(b)] for a, b in d[key]]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FeederSpec":
        if not isinstance(d, dict):
            raise InputError(f"a feeder spec must be a JSON object, got {d!r}")
        d = dict(d)
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise InputError(f"unknown feeder spec field(s): {', '.join(sorted(unknown))}")
        for key in ("xfmr_locations", "meter_locations"):
            if d.get(key) is not None:
                d[key] = np.radians(_coordinates(key, d[key]))
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad feeder spec: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "FeederSpec":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers undecodable bytes
            raise InputError(f"cannot parse feeder spec {path}: {exc}") from exc
        return cls.from_json_dict(d)


def _rng(spec: FeederSpec, stream: int) -> np.random.Generator:
    # independent substreams so profiles, noise, and placement each depend
    # only on the seed, not on whether the other draws happened
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(stream,)))


def _draw_profiles(spec: FeederSpec, rng, n: int, amp_pu: float) -> np.ndarray:
    """``n`` load profiles, (n, T): base + daily sinusoid + noise, clamped.

    Each meter's amplitude, phase and (with load noise) noise row are drawn
    in turn, so the random stream is the one a meter-by-meter build draws.
    The sinusoids are then built in one (n, T) array, one pass per
    operation in the order a single row takes them, so each row has the
    same bits. Only load noise needs a second (n, T) array, to hold
    its rows until then.
    """
    amp, phase = np.empty(n), np.empty(n)
    noise = np.empty((n, spec.T)) if spec.load_noise_pu > 0 else None
    for i in range(n):
        amp[i] = amp_pu * rng.uniform(0.5, 1.5)
        phase[i] = rng.uniform(0.0, 2.0 * np.pi)
        if noise is not None:
            noise[i] = rng.normal(0.0, spec.load_noise_pu, size=spec.T)
    day = 2.0 * np.pi * np.arange(spec.T) / spec.samples_per_day
    loads = np.add(day, phase[:, None])
    np.sin(loads, out=loads)
    loads += 1.0
    loads *= (amp * 0.5)[:, None]
    loads += spec.base_load_pu
    if noise is not None:
        loads += noise
    np.maximum(loads, -spec.der_injection_pu, out=loads)
    return loads


def generate_profiles(spec: FeederSpec) -> np.ndarray:
    """The (N, T) per-unit loads, one profile per meter: base + daily
    sinusoid + noise, clamped at -der_injection_pu.

    Amplitude and phase are drawn per meter, and all profiles are built
    in one array pass (``_draw_profiles``). If two meters on different
    transformers end up with exactly identical profiles, the second one is
    redrawn (with an amplitude floor so degenerate specs still separate),
    up to MAX_REDRAWS times.
    """
    rng = _rng(spec, 0)
    labels = spec.labels()
    n = spec.n_meters
    loads = _draw_profiles(spec, rng, n, spec.load_amp_pu)

    # profile bytes (+ 0.0 folds -0.0 into 0.0) -> transformer of the first
    # meter that drew it; every later meter with that profile shares it
    owner = {}
    for i in range(n):
        redraws = 0
        while owner.setdefault((loads[i] + 0.0).tobytes(), labels[i]) != labels[i]:
            if redraws == MAX_REDRAWS:
                raise InputError(
                    f"meter {i}'s load profile still matches another transformer's after "
                    f"{MAX_REDRAWS} redraws; do the loads all clamp at -der_injection_pu?"
                )
            redraws += 1
            loads[i] = _draw_profiles(spec, rng, 1, max(spec.load_amp_pu, 1e-6))[0]

    return loads


def _xfmr_grid(spec: FeederSpec) -> np.ndarray:
    """Transformers due east of the origin, xfmr_spacing_km apart (radians)."""
    lat0 = math.radians(spec.origin_lat_deg)
    lon0 = math.radians(spec.origin_lon_deg)
    xfmr_loc = np.empty((spec.k, 2))
    dlon = spec.xfmr_spacing_km / (EARTH_RADIUS_KM * math.cos(lat0))
    for j in range(spec.k):
        xfmr_loc[j] = (lat0, lon0 + j * dlon)
    return xfmr_loc


def _grid_locations(spec: FeederSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    if spec.xfmr_locations is not None:
        xfmr_loc = spec.xfmr_locations.copy()
    else:
        xfmr_loc = _xfmr_grid(spec)
    if spec.meter_locations is not None:
        meter_loc = spec.meter_locations.copy()
    else:
        # (r, theta) per meter, drawn in meter order as one (N, 2) array
        u = rng.uniform([0.0, 0.0], [1.0, 2.0 * np.pi], size=(spec.n_meters, 2))
        r = spec.meter_radius_km * np.sqrt(u[:, 0])
        theta = u[:, 1]
        lat_x, lon_x = xfmr_loc[spec.labels()].T
        meter_loc = np.empty((spec.n_meters, 2))
        meter_loc[:, 0] = lat_x + (r * np.cos(theta)) / EARTH_RADIUS_KM
        meter_loc[:, 1] = lon_x + (r * np.sin(theta)) / (EARTH_RADIUS_KM * np.cos(lat_x))
    return xfmr_loc, meter_loc


def simulate_voltages(
    spec: FeederSpec, loads: np.ndarray
) -> tuple[MeterDataset, TransformerSet, GroundTruth]:
    """Run the linearized feeder model on the (N, T) ``loads``, checked
    against the spec (InputError), and package the result as a dataset."""
    loads = np.asarray(loads, dtype=float)
    if loads.shape != (spec.n_meters, spec.T):
        raise InputError("load matrix does not match the feeder spec")
    if np.any(loads < -spec.der_injection_pu - 1e-12):
        raise InputError("loads fall below the spec's injection floor, -der_injection_pu")

    labels = spec.labels()
    volts = np.full((spec.n_meters, spec.T), spec.substation_voltage_pu)
    start = 0
    for j, n_j in enumerate(spec.meters_per_xfmr):
        group = loads[start : start + n_j]                 # (n_j, T)
        volts[start : start + n_j] -= spec.xfmr_impedance_pu[j] * group.sum(axis=0)
        # at zero resistance each drop is +-0.0, which moves no bit
        if spec.secondary == "chain":
            # segment s carries everything from position s to the end of
            # the chain; meter p accumulates segments 1..p
            suffix = np.cumsum(group[::-1], axis=0)[::-1]  # (n_j, T) downstream sums
            volts[start : start + n_j] -= spec.line_resistance_pu * np.cumsum(suffix, axis=0)
        else:  # star
            volts[start : start + n_j] -= spec.line_resistance_pu * group
        start += n_j

    if spec.noise_std_pu > 0:
        volts = volts + _rng(spec, 1).normal(0.0, spec.noise_std_pu, size=volts.shape)

    check_voltages(volts, "simulated voltages", NumericalError)

    xfmr_loc, meter_loc = _grid_locations(spec, _rng(spec, 2))
    width = max(3, len(str(spec.n_meters - 1)))
    meter_ids = [f"m{i:0{width}d}" for i in range(spec.n_meters)]
    xfmr_ids = [f"x{j}" for j in range(spec.k)]

    dataset = MeterDataset(
        meter_ids=meter_ids,
        voltages=volts,
        timestamps=_timestamps(spec.T),
        locations=meter_loc,
    )
    xfmrs = TransformerSet(xfmr_ids=xfmr_ids, locations=xfmr_loc)
    truth = GroundTruth(
        mapping={meter_ids[i]: xfmr_ids[labels[i]] for i in range(spec.n_meters)},
        meter_ids=meter_ids,
        xfmr_ids=xfmr_ids,
        labels=labels.copy(),
    )
    return dataset, xfmrs, truth


def _timestamps(t: int) -> list[str]:
    return list(_timestamp_labels(t))


@functools.lru_cache(maxsize=4)
def _timestamp_labels(t: int) -> tuple[str, ...]:
    # 15-minute cadence starting at an arbitrary fixed epoch; labels only.
    # Cached: a noise sweep simulates every trial at the same T.
    start = datetime(2018, 1, 1)
    return tuple((start + timedelta(minutes=15 * i)).isoformat() for i in range(t))
