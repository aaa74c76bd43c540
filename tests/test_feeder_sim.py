import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import reference_feeder_sim
from gridmap import feeder_sim
from gridmap.errors import InputError, NumericalError
from gridmap.feeder_sim import (
    FeederSpec,
    _grid_locations,
    _rng,
    generate_profiles,
    simulate_voltages,
)
from gridmap.graph import voltage_similarity


def small_spec(**overrides):
    base = dict(
        k=2,
        meters_per_xfmr=[3, 4],
        xfmr_impedance_pu=[0.004, 0.002],
        line_resistance_pu=0.0005,
        T=48,
        noise_std_pu=1e-4,
        seed=1,
    )
    base.update(overrides)
    return FeederSpec(**base)


def test_same_seed_reproduces_everything():
    a_data, a_xf, a_truth = simulate_voltages(small_spec(), generate_profiles(small_spec()))
    b_data, b_xf, b_truth = simulate_voltages(small_spec(), generate_profiles(small_spec()))
    assert np.array_equal(a_data.voltages, b_data.voltages)
    assert np.array_equal(a_data.locations, b_data.locations)
    assert np.array_equal(a_xf.locations, b_xf.locations)
    assert a_truth.mapping == b_truth.mapping


def test_seed_changes_the_draw():
    a, _, _ = simulate_voltages(small_spec(), generate_profiles(small_spec()))
    spec2 = small_spec(seed=2)
    b, _, _ = simulate_voltages(spec2, generate_profiles(spec2))
    assert not np.array_equal(a.voltages, b.voltages)


def test_labels_and_ids():
    spec = small_spec()
    data, xfmrs, truth = simulate_voltages(spec, generate_profiles(spec))
    assert list(truth.labels) == [0, 0, 0, 1, 1, 1, 1]
    assert data.meter_ids == [f"m{i:03d}" for i in range(7)]
    assert xfmrs.xfmr_ids == ["x0", "x1"]
    assert truth.mapping["m000"] == "x0"
    assert truth.mapping["m006"] == "x1"
    assert data.n_samples == 48
    assert len(data.timestamps) == 48
    assert data.timestamps[0] == "2018-01-01T00:00:00"
    assert data.timestamps[4] == "2018-01-01T01:00:00"


def test_chain_voltage_drops_along_the_run():
    # with positive loads and no noise, each meter down a chain secondary
    # sees every segment drop before it, so voltage falls monotonically
    spec = small_spec(noise_std_pu=0.0, secondary="chain")
    data, _, _ = simulate_voltages(spec, generate_profiles(spec))
    v = data.voltages
    assert np.all(v < spec.substation_voltage_pu)
    for start, stop in ((0, 3), (3, 7)):
        group = v[start:stop]
        assert np.all(group[:-1] > group[1:])


def test_star_spread_is_tighter_than_chain():
    chain_spec = small_spec(noise_std_pu=0.0, secondary="chain", meters_per_xfmr=[8, 8])
    star_spec = small_spec(noise_std_pu=0.0, secondary="star", meters_per_xfmr=[8, 8])
    chain, _, _ = simulate_voltages(chain_spec, generate_profiles(chain_spec))
    star, _, _ = simulate_voltages(star_spec, generate_profiles(star_spec))
    chain_spread = chain.voltages[:8].max(axis=0) - chain.voltages[:8].min(axis=0)
    star_spread = star.voltages[:8].max(axis=0) - star.voltages[:8].min(axis=0)
    assert np.all(star_spread < chain_spread)


def test_noise_free_similarity_is_block_structured():
    # three clusters, no noise: with a kernel width well under the smallest
    # inter-cluster voltage distance, cross-similarities collapse
    spec = FeederSpec(
        k=3,
        meters_per_xfmr=[4, 5, 6],
        xfmr_impedance_pu=[0.004, 0.002, 0.003],
        line_resistance_pu=0.0005,
        T=96,
        noise_std_pu=0.0,
        seed=7,
        secondary="star",
    )
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    dist = squareform(pdist(data.voltages))
    across = truth.labels[:, None] != truth.labels[None, :]
    sigma = dist[across].min() / 4.0
    m = voltage_similarity(data, sigma=sigma).matrix
    assert m[across].max() < 1e-6
    within = ~across & ~np.eye(len(truth.labels), dtype=bool)
    assert m[within].min() > 1e-3


def test_degenerate_profiles_are_resampled():
    # zero amplitude makes every meter's profile identical; the generator
    # must redraw cross-transformer duplicates or clustering is ill-posed
    spec = small_spec(load_amp_pu=0.0, noise_std_pu=0.0)
    loads = generate_profiles(spec)
    labels = spec.labels()
    n = len(labels)
    for i in range(n):
        for j in range(i):
            if labels[i] != labels[j]:
                assert not np.array_equal(loads[i], loads[j])


def test_load_floor_respected():
    spec = small_spec(load_noise_pu=0.05, der_injection_pu=0.02, noise_std_pu=0.0)
    assert generate_profiles(spec).min() >= -0.02 - 1e-12
    # without injection capacity the floor is zero
    clean = generate_profiles(small_spec(load_noise_pu=0.05))
    assert clean.min() >= 0.0


def test_injection_raises_voltage():
    base_spec = small_spec(noise_std_pu=0.0, load_noise_pu=0.0)
    base, _, _ = simulate_voltages(base_spec, generate_profiles(base_spec))
    # feed the same profiles back with some generation subtracted; they
    # stay at or above 0.005, inside the spec's floor of 0
    boosted, _, _ = simulate_voltages(base_spec, generate_profiles(base_spec) - 0.005)
    assert np.all(boosted.voltages > base.voltages)


def test_loads_are_checked_against_the_spec_floor():
    # loads drawn with injection capacity dip below zero; the same spec
    # without it refuses them, whatever spec they were drawn for
    drawn = small_spec(load_noise_pu=0.05, der_injection_pu=0.02, noise_std_pu=0.0)
    loads = generate_profiles(drawn)
    assert loads.min() == -0.02
    with pytest.raises(InputError, match="injection floor"):
        simulate_voltages(dataclasses.replace(drawn, der_injection_pu=0.0), loads)


def test_voltage_pushed_past_the_loader_range_is_an_error():
    # injection through a large impedance lifts 1.95 pu to about 2.10 pu,
    # a panel load_dataset would refuse
    spec = FeederSpec(k=2, meters_per_xfmr=3, T=24, xfmr_impedance_pu=0.1,
                      line_resistance_pu=0.0005, noise_std_pu=0.0, seed=0,
                      substation_voltage_pu=1.95, base_load_pu=-0.5, der_injection_pu=0.5)
    with pytest.raises(NumericalError, match=re.escape("must lie strictly inside (0, 2)")):
        simulate_voltages(spec, generate_profiles(spec))


def test_collapsed_voltage_is_an_error():
    spec = small_spec(xfmr_impedance_pu=[60.0, 60.0], noise_std_pu=0.0)
    with pytest.raises(NumericalError, match="voltage"):
        simulate_voltages(spec, generate_profiles(spec))


def test_load_shape_must_match_spec():
    spec = small_spec()
    other = small_spec(meters_per_xfmr=[2, 2])
    with pytest.raises(InputError, match="load matrix"):
        simulate_voltages(spec, generate_profiles(other))


def test_scalar_impedance_broadcasts():
    spec = small_spec(xfmr_impedance_pu=0.003)
    assert spec.xfmr_impedance_pu == [0.003, 0.003]
    spec2 = small_spec(meters_per_xfmr=3)
    assert spec2.meters_per_xfmr == [3, 3]


@pytest.mark.parametrize("overrides,message", [
    (dict(k=0, meters_per_xfmr=[], xfmr_impedance_pu=[]), "k must be"),
    (dict(meters_per_xfmr=[3]), "one entry per transformer"),
    (dict(meters_per_xfmr=[3, 0]), "at least one meter"),
    (dict(line_resistance_pu=-0.1), "nonnegative"),
    (dict(xfmr_impedance_pu=[-0.004, 0.002]), "nonnegative"),
    (dict(T=1), "T must be"),
    (dict(noise_std_pu=-1e-4), "noise"),
    (dict(secondary="ring"), "secondary"),
    (dict(meters_per_xfmr=[4.7, 4]), "integers"),
    (dict(meters_per_xfmr=4.0), "integers"),
    (dict(substation_voltage_pu=-1.0), "substation_voltage_pu"),
    (dict(substation_voltage_pu=0.0), "substation_voltage_pu"),
    # the loader refuses a voltage of 2 pu or more, so the spec does too
    (dict(substation_voltage_pu=2.0), r"substation_voltage_pu must lie strictly inside \(0, 2\)"),
    (dict(substation_voltage_pu=2.5), r"substation_voltage_pu must lie strictly inside \(0, 2\)"),
    (dict(xfmr_impedance_pu=[0.004]), "xfmr_impedance_pu must have one entry per transformer"),
    (dict(der_injection_pu=-0.01), "der_injection_pu must be nonnegative"),
    (dict(samples_per_day=0), "samples_per_day must be positive"),
    (dict(xfmr_locations=[[0.7, -1.8]]), re.escape("xfmr_locations must be (k, 2)")),
    (dict(meter_locations=[[0.7, -1.8]] * 6), re.escape("meter_locations must be (N, 2)")),
    (dict(origin_lat_deg=100.0), "latitude"),
    (dict(origin_lat_deg=-90.5), "latitude"),
    (dict(origin_lon_deg=180.5), "longitude"),
    (dict(meter_radius_km=-1.0), "meter_radius_km"),
    (dict(xfmr_spacing_km=0.0), "xfmr_spacing_km"),
    (dict(xfmr_spacing_km=-1.0), "xfmr_spacing_km"),
    # in range themselves, but the grid east of them is not
    (dict(origin_lon_deg=179.99), "would be placed at latitude 40.0, longitude 180.00"),
    (dict(origin_lat_deg=89.9999), "would be placed at latitude 89.9999, longitude 5"),
    (dict(origin_lat_deg=-89.99999, k=1, meters_per_xfmr=[3], xfmr_impedance_pu=[0.004]),
     "a meter would be placed at latitude -90.000"),
    # JSON booleans are not numbers, and every type error names its field
    (dict(seed=True), "seed must be an integer"),
    (dict(meters_per_xfmr=[True, 4]), "meters_per_xfmr must be integers"),
    (dict(samples_per_day=True), "samples_per_day must be an integer"),
    (dict(xfmr_impedance_pu=[0.004, True]), "xfmr_impedance_pu must be numbers"),
    (dict(k=True), "k must be an integer"),
    (dict(noise_std_pu="0"), "noise_std_pu must be a number"),
    (dict(origin_lat_deg=None), "origin_lat_deg must be a number"),
    # coordinates are number pairs too
    (dict(xfmr_locations=[[0.7, True], [0.7, -1.8]]), "xfmr_locations must be a list of"),
    (dict(xfmr_locations=[[0.7, -1.8], [0.7]]), r"xfmr_locations must be .* entry 1 is \[0.7\]"),
    (dict(xfmr_locations="abc"), "xfmr_locations must be a list of"),
    (dict(xfmr_locations={"a": 1}), "xfmr_locations must be a list of"),
    (dict(meter_locations=[[0.7, -1.8]] * 6 + [[0.7, np.False_]]),
     "meter_locations must be a list of"),
], ids=["k0", "len-mismatch", "empty-group", "neg-line", "neg-xfmr", "short", "neg-noise", "ring",
        "fractional-count", "float-scalar-count", "neg-substation", "zero-substation",
        "substation-at-2", "substation-above-2", "impedance-len-mismatch", "neg-injection",
        "zero-samples-per-day", "xfmr-locations-not-k", "meter-locations-not-n",
        "lat-100", "lat-below-90", "lon-above-180", "neg-radius", "zero-spacing",
        "neg-spacing", "grid-past-180", "grid-near-pole", "meters-past-pole",
        "bool-seed", "bool-count-entry", "bool-samples-per-day", "bool-impedance-entry", "bool-k",
        "string-noise", "null-origin", "bool-coordinate", "short-pair", "string-locations",
        "object-locations", "numpy-bool-coordinate"])
def test_spec_validation(overrides, message):
    with pytest.raises(InputError, match=message):
        small_spec(**overrides)


def test_spec_takes_numpy_and_integer_numbers():
    spec = small_spec(k=np.int64(2), meters_per_xfmr=np.array([3, 4]), seed=np.uint8(3),
                      xfmr_impedance_pu=[0, np.int64(1)], noise_std_pu=0, origin_lat_deg=np.int32(40))
    assert spec.meters_per_xfmr == [3, 4] and type(spec.meters_per_xfmr[0]) is int
    assert spec.xfmr_impedance_pu == [0.0, 1.0] and type(spec.xfmr_impedance_pu[1]) is float


def test_spec_json_needs_every_required_field():
    doc = small_spec().to_json_dict()
    del doc["seed"]
    with pytest.raises(InputError, match="bad feeder spec: .*seed"):
        FeederSpec.from_json_dict(doc)


def test_spec_json_round_trip():
    spec = small_spec(
        xfmr_locations=np.radians([[40.0, -105.0], [40.0, -104.99]]),
    )
    doc = spec.to_json_dict()
    text = json.dumps(doc)  # must be serializable as-is
    back = FeederSpec.from_json_dict(json.loads(text))
    assert back.k == spec.k
    assert back.meters_per_xfmr == spec.meters_per_xfmr
    assert back.xfmr_impedance_pu == spec.xfmr_impedance_pu
    assert back.seed == spec.seed
    assert np.allclose(back.xfmr_locations, spec.xfmr_locations, atol=1e-12)
    for f in dataclasses.fields(FeederSpec):
        if f.name in ("xfmr_locations", "meter_locations"):
            continue
        assert getattr(back, f.name) == getattr(spec, f.name), f.name


def test_spec_rejects_unknown_fields(tmp_path):
    doc = small_spec().to_json_dict()
    doc["impedance"] = 0.1
    with pytest.raises(InputError, match="unknown feeder spec field"):
        FeederSpec.from_json_dict(doc)
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="cannot parse"):
        FeederSpec.from_json_file(str(path))


def test_meters_sit_near_their_transformer():
    from gridmap.geo import haversine

    spec = small_spec(meter_radius_km=0.05, xfmr_spacing_km=2.0)
    data, xfmrs, truth = simulate_voltages(spec, generate_profiles(spec))
    for i, lab in enumerate(truth.labels):
        d_own = haversine(data.locations[i], xfmrs.locations[lab])
        assert d_own <= 0.05 + 1e-6
        d_other = haversine(data.locations[i], xfmrs.locations[1 - lab])
        assert d_other > 1.0


def _placed_spec(**overrides):
    # explicit coordinates (radians) for 2 transformers and their 7 meters
    rng = np.random.default_rng(3)
    xfmrs = np.radians([[40.0, -105.0], [40.01, -105.02]])
    meters = np.radians([40.0, -105.0]) + 1e-4 * rng.standard_normal((7, 2))
    return small_spec(xfmr_locations=xfmrs, meter_locations=meters, **overrides)


REFERENCE_SPECS = {
    "chain": lambda: small_spec(),
    "star": lambda: small_spec(secondary="star"),
    "load noise": lambda: small_spec(load_noise_pu=0.004),
    "injection clamp": lambda: small_spec(load_noise_pu=0.05, der_injection_pu=0.005),
    "redraws": lambda: small_spec(load_amp_pu=0.0, noise_std_pu=0.0),
    "explicit locations": _placed_spec,
    "zero radius": lambda: small_spec(meter_radius_km=0.0),
    "many meters": lambda: small_spec(
        k=6, meters_per_xfmr=[40, 1, 25, 33, 2, 60], xfmr_impedance_pu=0.003, T=301,
        samples_per_day=37, secondary="star", seed=11, origin_lat_deg=-61.5,
    ),
}


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_simulator_matches_the_per_meter_reference_byte_for_byte(name, monkeypatch):
    spec = REFERENCE_SPECS[name]()
    draws, build = [], feeder_sim._draw_profiles

    def counted(spec, rng, n, amp_pu):
        draws.append(n)
        return build(spec, rng, n, amp_pu)

    monkeypatch.setattr(feeder_sim, "_draw_profiles", counted)
    got, want = generate_profiles(spec), reference_feeder_sim.generate_profiles(spec)
    assert got.tobytes() == want.tobytes()
    for ours, theirs in zip(
        _grid_locations(spec, _rng(spec, 2)),
        reference_feeder_sim._grid_locations(spec, _rng(spec, 2)),
    ):
        assert ours.tobytes() == theirs.tobytes()
    # one draw of all N profiles, then one call per redrawn profile
    assert draws[0] == spec.n_meters
    assert draws[1:] == ([1] * (len(draws) - 1)) and (len(draws) > 1) == (name == "redraws")
    if name == "injection clamp":
        assert (got == -0.005).any()


@pytest.mark.parametrize("name", ["redraws", "many meters"])
def test_profile_guard_compares_bytes_where_hashes_collide(name, monkeypatch):
    # every profile hashes alike, so each is told apart by its bytes alone
    spec = REFERENCE_SPECS[name]()
    monkeypatch.setattr(feeder_sim, "hash", lambda key: 0, raising=False)
    got = generate_profiles(spec)
    assert got.tobytes() == reference_feeder_sim.generate_profiles(spec).tobytes()


def test_timestamps_are_cached_but_every_call_gets_its_own_list():
    first = feeder_sim._timestamps(3)
    first[0] = "changed"
    assert feeder_sim._timestamps(3) == [
        "2018-01-01T00:00:00", "2018-01-01T00:15:00", "2018-01-01T00:30:00",
    ]
    assert feeder_sim._timestamps(3) is not feeder_sim._timestamps(3)
    assert len(feeder_sim._timestamps(2881)) == 2881
