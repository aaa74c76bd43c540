import csv
import math
import warnings

import numpy as np
import pytest

from gridmap.errors import InputError
from gridmap.ingest import (
    MAX_MISSING_FRACTION,
    GroundTruth,
    MeterDataset,
    TransformerSet,
    load_dataset,
    load_ground_truth,
    load_transformers,
    save_dataset,
    save_ground_truth,
    save_transformers,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def _random_dataset(seed, n=6, t=20, with_locations=True):
    rng = np.random.default_rng(seed)
    volts = 1.0 + 0.01 * rng.standard_normal((n, t))
    locs = None
    if with_locations:
        locs = np.stack([
            rng.uniform(math.radians(-80), math.radians(80), n),
            rng.uniform(-math.pi, math.pi, n),
        ], axis=1)
    return MeterDataset(
        meter_ids=[f"m{i}" for i in range(n)],
        voltages=volts,
        timestamps=[f"t{j}" for j in range(t)],
        locations=locs,
    )


def _per_cell_load(path):
    """load_dataset's per-cell parse and imputation, the reference for its row parse."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    volts = np.array([[math.nan if c == "" else float(c) for c in r[1:]] for r in rows])
    missing = np.isnan(volts)
    keep = missing.mean(axis=1) <= MAX_MISSING_FRACTION
    volts, missing = volts[keep], missing[keep]
    idx = np.arange(volts.shape[1], dtype=float)
    for i in np.flatnonzero(missing.any(axis=1)):
        obs = ~missing[i]
        volts[i, missing[i]] = np.interp(idx[missing[i]], idx[obs], volts[i, obs])
    ids = [r[0] for r in rows]
    kept = [m for m, ok in zip(ids, keep) if ok]
    return kept, volts, int(missing.sum()), [m for m, ok in zip(ids, keep) if not ok]


def test_save_load_round_trip(tmp_path):
    ds = _random_dataset(3)
    ds.meter_ids[1] = "m1,west"     # csv.writer quotes it
    lp = tmp_path / "locations.csv"
    # row -> sample columns blanked on disk; row 5 loses 25% of its samples and is dropped
    for blanks in ({}, {2: [0, 7], 4: [19], 5: [0, 4, 8, 12, 16]}):
        vp = tmp_path / "voltages.csv"
        save_dataset(ds, vp, lp)
        if blanks:
            with open(vp, newline="") as fh:
                rows = list(csv.reader(fh))
            for i, cols in blanks.items():
                for j in cols:
                    rows[i + 1][j + 1] = ""
            with open(vp, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = load_dataset(str(vp), str(lp))
        ids, volts, n_imputed, dropped = _per_cell_load(vp)
        assert back.meter_ids == ids
        assert back.timestamps == ds.timestamps
        assert back.voltages.tobytes() == volts.tobytes()
        assert (back.n_imputed, back.dropped) == (n_imputed, dropped)
        assert len(caught) == len(dropped)
        if blanks:
            assert (dropped, n_imputed) == (["m5"], 3)
        else:
            # repr() round-trips floats exactly
            assert ids == ds.meter_ids and np.array_equal(volts, ds.voltages)
        # coordinates pass through a degrees conversion, so allow roundoff
        order = [ds.meter_ids.index(m) for m in ids]
        assert np.allclose(back.locations, ds.locations[order], rtol=0.0, atol=1e-12)


def test_missing_cells_imputed_and_counted(tmp_path):
    # 1.73% of a 10 x 1000 panel blanked out: 173 cells come back imputed
    rng = np.random.default_rng(7)
    n, t = 10, 1000
    volts = 1.0 + 0.005 * rng.standard_normal((n, t))
    n_blank = round(0.0173 * n * t)
    assert n_blank == 173 == math.ceil(0.0173 * n * t)
    flat = rng.choice(n * t, size=n_blank, replace=False)
    cells = [repr(float(v)) for v in volts.ravel()]
    for idx in flat:
        cells[idx] = ""
    rows = ["meter_id," + ",".join(f"t{j}" for j in range(t))]
    for i in range(n):
        rows.append(f"m{i}," + ",".join(cells[i * t:(i + 1) * t]))
    path = _write(tmp_path / "v.csv", "\n".join(rows) + "\n")

    ds = load_dataset(path)
    assert ds.n_imputed == n_blank
    assert ds.dropped == []
    assert np.all(np.isfinite(ds.voltages))
    assert ds.voltages.shape == (n, t)


def test_imputation_is_linear_and_holds_endpoints(tmp_path):
    # one gap in six samples stays under the 20% drop threshold
    path = _write(
        tmp_path / "v.csv",
        "meter_id,t0,t1,t2,t3,t4,t5\n"
        "a,0.9,,1.1,1.2,1.0,1.0\n"
        "b,,1.0,1.0,0.8,0.9,0.7\n",
    )
    ds = load_dataset(path)
    assert ds.voltages[0, 1] == pytest.approx(1.0)      # midpoint of 0.9 and 1.1
    assert ds.voltages[1, 0] == pytest.approx(1.0)      # held from first observed
    assert ds.n_imputed == 2


def test_meter_with_too_many_gaps_is_dropped(tmp_path):
    # meter b is missing 2 of 8 samples (25% > 20%)
    path = _write(
        tmp_path / "v.csv",
        "meter_id,t0,t1,t2,t3,t4,t5,t6,t7\n"
        "a,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0\n"
        "b,1.0,,1.0,1.0,,1.0,1.0,1.0\n"
        "c,1.0,1.0,1.0,1.01,1.0,1.0,1.0,1.0\n",
    )
    with pytest.warns(UserWarning, match="dropped 1 meter"):
        ds = load_dataset(path)
    assert ds.meter_ids == ["a", "c"]
    assert ds.dropped == ["b"]


@pytest.mark.parametrize("body,message", [
    ("meter_id,t0,t1\na,1.0,1.0\na,1.0,1.0\n", "duplicate"),
    ("meter_id,t0,t1\na,1.0,1.0\n", "at least 2 meters"),
    ("meter_id,t0,t1\n", "at least 2 meters"),
    ("meter_id,t0,t1\na,1.0,1.0\nb,1.0\n", "expected 2"),
    ("meter_id,t0,t1\na,1.0,2.5\nb,1.0,1.0\n", "strictly inside"),
    ("meter_id,t0,t1\na,1.0,-1.0\nb,1.0,1.0\n", "strictly inside"),
    ("meter_id,t0,t1\na,1.0,inf\nb,1.0,1.0\n", "non-finite"),
    ("meter_id,t0,t1\na,1.0,oops\nb,1.0,1.0\n", "bad voltage"),
    ("meter_id,t0,t1\na,1.0,-inf\nb,1.0,1.0\n", "non-finite voltage value '-inf'"),
    # the first bad row in file order decides the error
    ("meter_id,t0,t1\na,1.0,nan\nb,1.0,oops\n", "non-finite voltage value 'nan'"),
], ids=["dup-id", "one-meter", "header-only", "ragged", "too-high", "negative", "inf", "garbage",
        "minus-inf", "nan-before-garbage"])
def test_bad_voltage_files_rejected(tmp_path, body, message):
    path = _write(tmp_path / "v.csv", body)
    with pytest.raises(InputError, match=message):
        load_dataset(path)


def test_locations_must_cover_all_meters(tmp_path):
    vp = _write(tmp_path / "v.csv", "meter_id,t0,t1\na,1.0,1.0\nb,1.0,1.0\n")
    lp = _write(tmp_path / "l.csv", "meter_id,lat_deg,lon_deg\na,40.0,-105.0\n")
    with pytest.raises(InputError, match="no coordinates for meter"):
        load_dataset(vp, lp)


def test_location_range_validation(tmp_path):
    vp = _write(tmp_path / "v.csv", "meter_id,t0,t1\na,1.0,1.0\nb,1.0,1.0\n")
    lp = _write(
        tmp_path / "l.csv",
        "meter_id,lat_deg,lon_deg\na,95.0,0.0\nb,0.0,0.0\n",
    )
    with pytest.raises(InputError, match="latitude"):
        load_dataset(vp, lp)


def test_load_transformers_two_rows(tmp_path):
    path = _write(
        tmp_path / "x.csv",
        "xfmr_id,lat_deg,lon_deg\nx0,40.0,-105.0\nx1,40.0,-104.99\n",
    )
    xf = load_transformers(path)
    assert xf.n_transformers == 2
    assert xf.xfmr_ids == ["x0", "x1"]
    assert xf.locations[0, 0] == pytest.approx(math.radians(40.0))


def test_load_transformers_duplicate_id(tmp_path):
    path = _write(
        tmp_path / "x.csv",
        "xfmr_id,lat_deg,lon_deg\nx0,40.0,-105.0\nx0,41.0,-105.0\n",
    )
    with pytest.raises(InputError, match="duplicate"):
        load_transformers(path)


def _two_xfmrs():
    return TransformerSet(
        xfmr_ids=["A", "B"],
        locations=np.zeros((2, 2)),
    )


def test_ground_truth_four_meters(tmp_path):
    path = _write(
        tmp_path / "gt.csv",
        "meter_id,xfmr_id\nm0,A\nm1,A\nm2,B\nm3,B\n",
    )
    truth = load_ground_truth(path, ["m0", "m1", "m2", "m3"], _two_xfmrs())
    assert truth.k == 2
    assert tuple(truth.sizes) == (2, 2)
    assert truth.mapping["m2"] == "B"
    assert list(truth.labels) == [0, 0, 1, 1]


def test_ground_truth_missing_meter(tmp_path):
    path = _write(tmp_path / "gt.csv", "meter_id,xfmr_id\nm0,A\nm1,B\n")
    with pytest.raises(InputError, match="no assignment"):
        load_ground_truth(path, ["m0", "m1", "m2"], _two_xfmrs())


def test_ground_truth_unknown_transformer(tmp_path):
    path = _write(tmp_path / "gt.csv", "meter_id,xfmr_id\nm0,A\nm1,Z\n")
    with pytest.raises(InputError, match="unknown transformer"):
        load_ground_truth(path, ["m0", "m1"], _two_xfmrs())


def test_ground_truth_empty_transformer(tmp_path):
    path = _write(tmp_path / "gt.csv", "meter_id,xfmr_id\nm0,A\nm1,A\n")
    with pytest.raises(InputError, match="no meters"):
        load_ground_truth(path, ["m0", "m1"], _two_xfmrs())


def test_ground_truth_accepts_dataset_or_ids(tmp_path):
    path = _write(tmp_path / "gt.csv", "meter_id,xfmr_id\nm0,A\nm1,B\n")
    ds = MeterDataset(
        meter_ids=["m0", "m1"],
        voltages=np.ones((2, 2)),
        timestamps=["t0", "t1"],
    )
    a = load_ground_truth(path, ds, _two_xfmrs())
    b = load_ground_truth(path, ["m0", "m1"], _two_xfmrs())
    assert a.mapping == b.mapping
    assert np.array_equal(a.labels, b.labels)


def test_ground_truth_round_trip(tmp_path):
    truth = GroundTruth(
        mapping={"m0": "A", "m1": "B", "m2": "A"},
        meter_ids=["m0", "m1", "m2"],
        xfmr_ids=["A", "B"],
        labels=np.array([0, 1, 0]),
    )
    path = tmp_path / "gt.csv"
    save_ground_truth(truth, path)
    back = load_ground_truth(str(path), ["m0", "m1", "m2"], _two_xfmrs())
    assert back.mapping == truth.mapping


def test_transformer_round_trip(tmp_path):
    xf = TransformerSet(
        xfmr_ids=["x0", "x1", "x2"],
        locations=np.radians([[40.0, -105.0], [40.0, -104.99], [40.01, -105.0]]),
    )
    path = tmp_path / "x.csv"
    save_transformers(xf, path)
    back = load_transformers(str(path))
    assert back.xfmr_ids == xf.xfmr_ids
    assert np.allclose(back.locations, xf.locations, rtol=0.0, atol=1e-12)
