import csv
import gc
import json
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest

import gridmap.cli
from gridmap import ingest
from gridmap.cli import _write_json, main
from gridmap.errors import InputError
from gridmap.graph import laplacian, voltage_similarity
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
from gridmap.spectral import embed

from scenarios import two_cluster_spec


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
    ("meter_id,t0\na,1.0\nb,1.0\n", "at least two sample columns"),
    ("meter_id,t0,t1\na,1.0,1.0\nb,1.0\n", "expected 2"),
    ("meter_id,t0,t1\na,1.0,2.5\nb,1.0,1.0\n", "strictly inside"),
    ("meter_id,t0,t1\na,1.0,-1.0\nb,1.0,1.0\n", "strictly inside"),
    ("meter_id,t0,t1\na,1.0,inf\nb,1.0,1.0\n", "non-finite"),
    ("meter_id,t0,t1\na,1.0,oops\nb,1.0,1.0\n", "bad voltage"),
    ("meter_id,t0,t1\na,1.0,-inf\nb,1.0,1.0\n", "non-finite voltage value '-inf'"),
    # the first bad row in file order decides the error
    ("meter_id,t0,t1\na,1.0,nan\nb,1.0,oops\n", "non-finite voltage value 'nan'"),
    # refused by the loadtxt parse; the per-cell parse words the error
    ("meter_id,t0,t1\na,1.0,1.0\n\nb,1.0,1.0\n",
     re.escape("row for '?' has -1 samples, expected 2") + "$"),
    ("meter_id,t0,t1\na,1.0,1.0,\nb,1.0,1.0\n",
     re.escape("row for 'a' has 3 samples, expected 2") + "$"),
    ("meter_id,t0,t1\na,1.0, \nb,1.0,1.0\n", re.escape("bad voltage value ' '") + "$"),
    ("meter_id,t0,t1,t2,t3,t4\na,1.0,,nan,1.0,1.0\nb,1.0,1.0,1.0,1.0,1.0\n",
     re.escape("non-finite voltage value 'nan'") + "$"),
    ("meter_id,t0,t1\na,1.0,1e400\nb,1.0,1.0\n", re.escape("non-finite voltage value '1e400'") + "$"),
    # numpy strips \x1c-\x1f as whitespace, float() does not
    ("meter_id,t0,t1\na,1.0,\x1c1.0\nb,1.0,1.0\n", re.escape("bad voltage value '\\x1c1.0'") + "$"),
    ('meter_id,t0,t1\n"a,1.0,1.0\nb,1.0,1.0\n',
     re.escape("row for 'a,1.0,1.0\\nb,1.0,1.0\\n' has 0 samples, expected 2") + "$"),
    # csv.reader's field size limit holds for the loadtxt parse too
    ("meter_id,t0,t1\na,1.0,1." + "0" * 131071 + "\nb,1.0,1.0\n",
     re.escape("malformed CSV: field larger than field limit (131072)") + "$"),
    ("meter_id,t0,t1\n" + "a" * 131073 + ",1.0,1.0\nb,1.0,1.0\n",
     re.escape("malformed CSV: field larger than field limit (131072)") + "$"),
    ("", "empty file$"),
], ids=["dup-id", "one-meter", "header-only", "one-sample", "ragged", "too-high", "negative",
        "inf", "garbage", "minus-inf", "nan-before-garbage", "blank-line", "extra-field",
        "whitespace-cell", "nan-beside-empty", "overflow", "numpy-only-space", "unterminated-id",
        "long-cell", "long-id", "zero-bytes"])
def test_bad_voltage_files_rejected(tmp_path, body, message):
    path = _write(tmp_path / "v.csv", body)
    with pytest.raises(InputError, match=message):
        load_dataset(path)


_SAMPLES = ["1.0", "0.998", "1.002", "0.9951", "1.0049", "0.97", "1.03", "0.9999", "1.0001", "1.01"]


def _row(meter_id, edits=None):
    """A row of the ten _SAMPLES with the cells at the given columns replaced."""
    cells = list(_SAMPLES)
    for j, cell in (edits or {}).items():
        cells[j] = cell
    return ",".join([meter_id, *cells])


_ROWS = [_row("a"), _row("b", {3: "0.991"}), _row("c", {9: "1.011"})]


@pytest.mark.parametrize("rows,newline,final", [
    (_ROWS, "\n", True),
    (_ROWS, "\r\n", True),
    (_ROWS, "\r", True),
    (_ROWS, "\r\n", False),
    ([_row("a", {0: ""}), _row("b", {4: ""}), _row("c", {9: ""})], "\r\n", True),
    # b misses 30% of its samples and is dropped
    ([_row("a", {0: "", 1: ""}), _row("b", {3: "", 4: "", 5: ""}), _row("c", {0: "", 9: ""})],
     "\r\n", True),
    ([_row("a", {0: " 1.0", 1: "0.998 "}), _row("b", {2: "\t1.002\t"}), _row("c")], "\n", True),
    ([_row("a", {0: "+1.0", 1: ".5", 2: "1."}), _row("b"), _row("c", {9: "1.e-0"})], "\n", True),
    ([_row("a", {4: "0.9_9"}), _row("b"), _row("c")], "\n", True),
    ([_row("a", {4: "\u0661.\u0660"}), _row("b"), _row("c")], "\n", True),
    ([_row("a", {4: '"0.99"'}), _row("b"), _row("c")], "\n", True),
    ([_row('"m1,west"'), _row('"say ""hi"""', {0: ""}), _row("c")], "\r\n", True),
], ids=["lf", "crlf", "cr", "no-final-newline", "empty-start-middle-end", "empty-runs", "padded",
        "signs-and-dots", "underscore", "non-ascii-digits", "quoted-cell", "quoted-id"])
def test_parse_matches_the_per_cell_reference(tmp_path, rows, newline, final):
    header = ",".join(["meter_id", *(f"t{j}" for j in range(len(_SAMPLES)))])
    path = tmp_path / "v.csv"
    path.write_text(newline.join([header, *rows]) + (newline if final else ""), newline="")
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        ds = load_dataset(str(path))
    ids, volts, n_imputed, dropped = _per_cell_load(path)
    assert ds.meter_ids == ids
    assert ds.timestamps == header.split(",")[1:]
    assert ds.voltages.tobytes() == volts.tobytes()
    assert (ds.n_imputed, ds.dropped) == (n_imputed, dropped)


def test_saved_panels_take_the_loadtxt_parse(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("panel left to the per-cell parser")

    monkeypatch.setattr(ingest, "_per_cell_panel", refuse)
    ds = _random_dataset(5, n=6, t=40, with_locations=False)
    clean, blanked = tmp_path / "clean.csv", tmp_path / "blanked.csv"
    save_dataset(ds, clean)
    with open(clean, newline="") as fh:
        rows = list(csv.reader(fh))
    # row -> sample columns left empty: a run, the first and the last cell
    for i, cols in {1: [5, 6], 3: [0], 4: [39, 20]}.items():
        for j in cols:
            rows[i + 1][j + 1] = ""
    with open(blanked, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for path in (clean, blanked):
        back = load_dataset(str(path))
        ids, volts, n_imputed, dropped = _per_cell_load(path)
        assert back.meter_ids == ids
        assert back.voltages.tobytes() == volts.tobytes()
        assert (back.n_imputed, back.dropped) == (n_imputed, dropped)
    assert load_dataset(str(blanked)).n_imputed == 5


def test_quoted_ids_take_the_per_cell_parse(tmp_path, monkeypatch):
    # csv.writer quotes an id holding a comma, a quote or a line break; the
    # one-call parse refuses the line and the per-cell parse unquotes it
    calls = []
    per_cell = ingest._per_cell_panel

    def counting(*args):
        calls.append(args[2])
        return per_cell(*args)

    monkeypatch.setattr(ingest, "_per_cell_panel", counting)
    ds = _random_dataset(5, n=6, t=40, with_locations=False)
    ds.meter_ids[2] = 'm2,"west"'
    quoted = tmp_path / "quoted.csv"
    save_dataset(ds, quoted)
    back = load_dataset(str(quoted))
    assert calls == [str(quoted)]
    ids, volts, n_imputed, dropped = _per_cell_load(quoted)
    assert back.meter_ids == ids and ids[2] == 'm2,"west"'
    assert back.voltages.tobytes() == volts.tobytes()
    assert (back.n_imputed, back.dropped) == (n_imputed, dropped)


# ids that csv.writer must quote or leave alone, one of each kind
AWKWARD_IDS = ["a,b", 'say "hi"', "two\nlines", " lead", "tab\tin", "cr\rid", '"', "", "plain"]


def _writer_bytes(path, header, rows):
    """The bytes csv.writer writes for ``header`` and then ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _coord_rows(ids, coords):
    """Coordinate rows as they were written before the shared table writer."""
    return [[name, repr(math.degrees(coords[i, 0])), repr(math.degrees(coords[i, 1]))]
            for i, name in enumerate(ids)]


def test_saved_panel_bytes_are_csv_writers(tmp_path):
    ds = _random_dataset(7, n=9, t=5)
    ds.voltages[0, 0], ds.voltages[1, 1] = -0.0, 1e-310  # signed zero, subnormal
    ds.locations[2, 0], ds.locations[3, 1] = -0.0, 5e-324
    ds.meter_ids = list(AWKWARD_IDS)
    ds.timestamps[2] = "2018-01-01, 00:30"
    save_dataset(ds, tmp_path / "v.csv", tmp_path / "l.csv")
    want = _writer_bytes(tmp_path / "want.csv", ["meter_id", *ds.timestamps],
                         [[m, *map(repr, ds.voltages[i].tolist())]
                          for i, m in enumerate(ds.meter_ids)])
    assert (tmp_path / "v.csv").read_bytes() == want
    want = _writer_bytes(tmp_path / "want.csv", ["meter_id", "lat_deg", "lon_deg"],
                         _coord_rows(ds.meter_ids, ds.locations))
    assert (tmp_path / "l.csv").read_bytes() == want

    xf = TransformerSet(xfmr_ids=AWKWARD_IDS[::-1], locations=ds.locations[::-1].copy())
    save_transformers(xf, tmp_path / "x.csv")
    want = _writer_bytes(tmp_path / "want.csv", ["xfmr_id", "lat_deg", "lon_deg"],
                         _coord_rows(xf.xfmr_ids, xf.locations))
    assert (tmp_path / "x.csv").read_bytes() == want


def test_command_line_tables_are_csv_writers(tmp_path):
    # --dump-similarity, --dump-embedding and eigs.csv, against the
    # csv.writer rows the command line wrote them with before
    ds = _random_dataset(8, n=9, t=6, with_locations=False)
    ds.meter_ids = list(AWKWARD_IDS)
    truth = GroundTruth(mapping={m: f"x{i % 2}" for i, m in enumerate(ds.meter_ids)},
                        meter_ids=ds.meter_ids, xfmr_ids=["x0", "x1"],
                        labels=np.arange(9) % 2)
    v, x, gt = tmp_path / "v.csv", tmp_path / "x.csv", tmp_path / "gt.csv"
    save_dataset(ds, v)
    save_transformers(TransformerSet(["x0", "x1"], np.zeros((2, 2))), x)
    save_ground_truth(truth, gt)
    assert main(["cluster", "--voltages", str(v), "--k", "2", "--out", str(tmp_path / "c"),
                 "--dump-similarity", str(tmp_path / "s.csv"),
                 "--dump-embedding", str(tmp_path / "e.csv")]) == 0
    assert main(["validate-assumption", "--voltages", str(v), "--transformers", str(x),
                 "--ground-truth", str(gt), "--out", str(tmp_path / "g")]) == 0

    data = load_dataset(v)
    g = voltage_similarity(data)
    for name, matrix in (("s.csv", g.matrix), ("e.csv", embed(laplacian(g), 2).X)):
        want = _writer_bytes(
            tmp_path / "want.csv", ["meter_id", *(f"c{j}" for j in range(matrix.shape[1]))],
            [[m, *(repr(float(x)) for x in row)] for m, row in zip(data.meter_ids, matrix)])
        assert (tmp_path / name).read_bytes() == want

    with open(tmp_path / "g" / "guarantee.json") as fh:
        doc = json.load(fh)  # json writes each float as its repr, so these are exact
    want = _writer_bytes(tmp_path / "want.csv", ["index", "ideal", "real"], [
        [i, repr(float(wi)), repr(float(wr))]
        for i, (wi, wr) in enumerate(zip(doc["ideal_eigenvalues"], doc["real_eigenvalues"]))])
    assert (tmp_path / "g" / "eigs.csv").read_bytes() == want


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


@pytest.mark.parametrize("body,message", [
    ("meter_id,lat_deg\na,40.0\nb,40.0\n", "expected 3 columns, got 2"),
    ("meter_id,lat_deg,lon_deg\na,40.0,-105.0\nb,40.0\n", "row with 2 cells, expected 3"),
    ("meter_id,lat_deg,lon_deg\na,40.0,-105.0\nb,40.0,190.0\n",
     re.escape("longitude 190.0 out of [-180, 180] for 'b'")),
], ids=["two-column-header", "short-row", "longitude-190"])
def test_bad_coordinate_files_rejected(tmp_path, body, message):
    vp = _write(tmp_path / "v.csv", "meter_id,t0,t1\na,1.0,1.0\nb,1.0,1.0\n")
    with pytest.raises(InputError, match=message):
        load_dataset(vp, _write(tmp_path / "l.csv", body))


def test_transformers_file_with_only_a_header(tmp_path):
    with pytest.raises(InputError, match="no transformers"):
        load_transformers(_write(tmp_path / "x.csv", "xfmr_id,lat_deg,lon_deg\n"))


def test_save_dataset_needs_locations_to_save_them(tmp_path):
    ds = _random_dataset(0, with_locations=False)
    with pytest.raises(InputError, match="no locations to save"):
        save_dataset(ds, tmp_path / "v.csv", tmp_path / "l.csv")
    assert not (tmp_path / "l.csv").exists()


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


@pytest.mark.parametrize("body,message", [
    ("meter_id\nm0\nm1\n", "expected 2 columns, got 1"),
    ("meter_id,xfmr_id\nm0,A\nm1\n", "row with 1 cells, expected 2"),
    ("meter_id,xfmr_id\nm0,A\nm1,B\nm0,B\n", "duplicate meter id 'm0'"),
], ids=["one-column-header", "short-row", "repeated-meter"])
def test_bad_ground_truth_files_rejected(tmp_path, body, message):
    with pytest.raises(InputError, match=message):
        load_ground_truth(_write(tmp_path / "gt.csv", body), ["m0", "m1"], _two_xfmrs())


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


# --- outputs are rewritten in place ------------------------------------------
# Each writer below writes ``rows`` rows to ``path``; given ``fail_at``, it
# raises _Boom inside its open_output block, after writing part of them.

class _Boom(Exception):
    pass


class _BoomDict(dict):
    """A dict whose missing keys and item list raise _Boom."""

    def __missing__(self, key):
        raise _Boom

    def items(self):
        raise _Boom


class _BoomWriter:
    """A csv.writer that raises _Boom in place of row ``fail_at``."""

    def __init__(self, fh, fail_at, writer=csv.writer):
        self.out, self.fail_at, self.n = writer(fh), fail_at, 0

    def writerow(self, row):
        if self.n == self.fail_at:
            raise _Boom
        self.n += 1
        self.out.writerow(row)


def _table(path, rows, fail_at=None):
    def ids():
        for i in range(rows):
            if i == fail_at:
                raise _Boom
            yield f"m{i}"

    ingest.write_table(path, ["meter_id", "c0"], ids(), np.arange(rows)[:, None] / 3.0)


def _json(path, rows, fail_at=None):
    doc = {"a": list(range(rows))}
    if fail_at is not None:
        doc["b"] = _BoomDict(x=1)  # json asks for its items after writing "a"
    _write_json(path, doc)


def _truth(path, rows, fail_at=None):
    ids = [f"m{i}" for i in range(rows)]
    mapping = _BoomDict({m: "x0" for m in ids[:fail_at]})
    save_ground_truth(GroundTruth(mapping, ids, ["x0"], np.zeros(rows, dtype=int)), path)


def _sweep(path, rows, fail_at=None):
    spec = path.parent.parent / f"{path.parent.name}_spec.json"
    spec.write_text(json.dumps(two_cluster_spec(0.0, seed=0).to_json_dict()))
    argv = ["sweep-noise", "--spec", str(spec), "--trials", "1", "--out", str(path.parent),
            "--noise-grid", ",".join(repr(i * 1e-5) for i in range(rows))]
    with pytest.MonkeyPatch.context() as mp:
        if fail_at is not None:
            mp.setattr(gridmap.cli.csv, "writer", lambda fh: _BoomWriter(fh, fail_at))
        assert main(argv) == 0


# the name of the file each writer writes; sweep-noise always writes sweep.csv
WRITERS = {"write_table": ("t.csv", _table), "_write_json": ("d.json", _json),
           "save_ground_truth": ("gt.csv", _truth), "sweep.csv": ("sweep.csv", _sweep)}


def _fresh(tmp_path, writer, rows, fail_at=None):
    """The bytes ``writer`` leaves in a file that did not exist before."""
    name, write = WRITERS[writer]
    (tmp_path / "fresh").mkdir()
    path = tmp_path / "fresh" / name
    if fail_at is None:
        write(path, rows)
    else:
        with pytest.raises(_Boom):
            write(path, rows, fail_at)
    return path.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
def test_rewrite_is_in_place_and_leaves_no_old_tail(tmp_path, writer):
    name, write = WRITERS[writer]
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / name
    write(path, 5)
    os.chmod(path, 0o600)
    before = os.stat(path)
    write(path, 2)
    after = os.stat(path)
    assert path.read_bytes() == _fresh(tmp_path, writer, 2)
    assert after.st_size < before.st_size
    assert (after.st_ino, after.st_dev) == (before.st_ino, before.st_dev)
    assert stat.S_IMODE(after.st_mode) == 0o600


@pytest.mark.parametrize("writer", WRITERS)
def test_rewrite_writes_through_a_symlink(tmp_path, writer):
    name, write = WRITERS[writer]
    (tmp_path / "target").mkdir()
    target = tmp_path / "target" / name
    write(target, 5)
    (tmp_path / "out").mkdir()
    link = tmp_path / "out" / name
    link.symlink_to(target)
    write(link, 2)
    assert link.is_symlink()
    assert target.read_bytes() == _fresh(tmp_path, writer, 2)


@pytest.mark.parametrize("writer", WRITERS)
def test_a_raising_write_keeps_only_the_bytes_before_it(tmp_path, writer):
    name, write = WRITERS[writer]
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / name
    write(path, 10)
    whole = path.read_bytes()
    with pytest.raises(_Boom):
        write(path, 5, fail_at=2)
    want = _fresh(tmp_path, writer, 5, fail_at=2)
    assert 0 < len(want) < len(whole)
    assert path.read_bytes() == want


def _lowest_free_descriptor():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_a_failed_open_output_leaks_no_descriptor(tmp_path, where):
    path = tmp_path / "out" if where == "directory" else tmp_path / "missing" / "out"
    if where == "directory":
        path.mkdir()
    free = _lowest_free_descriptor()
    for _ in range(3):
        with pytest.raises(InputError, match=f"cannot write {re.escape(str(path))}: "):
            with ingest.open_output(path):
                pass
    gc.collect()  # a file left unclosed would warn here, and warnings are errors
    assert _lowest_free_descriptor() == free
