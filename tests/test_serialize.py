"""Record format: byte layout and roundtrip."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marlab.agents import make_team
from marlab.comm import CommSettings
from marlab.errors import CheckpointError, ContractError, MarlabError
from marlab.nn import Parameter, load_records, write_records
from marlab.nn.serialize import read_records


def named(params):
    """The (name, array) pairs that write_records and load_records take."""
    return [(p.name, p.data) for p in params]


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    params = [
        Parameter(rng.standard_normal((3, 4)), name="fc.weight"),
        Parameter(rng.standard_normal((1, 4)), name="fc.bias"),
    ]
    path = tmp_path / "ckpt.bin"
    write_records(path, named(params))

    originals = [p.data.copy() for p in params]
    for p in params:
        p.data[...] = 0.0
    load_records(path, named(params))
    for p, orig in zip(params, originals):
        assert np.array_equal(p.data, orig)


def test_binary_layout_is_length_prefixed_little_endian(tmp_path):
    p = Parameter(np.array([[1.5, -2.0]]), name="w")
    path = tmp_path / "one.bin"
    write_records(path, named([p]))
    blob = path.read_bytes()

    name_len = struct.unpack_from("<Q", blob, 0)[0]
    assert name_len == 1
    assert blob[8:9] == b"w"
    rows, cols = struct.unpack_from("<QQ", blob, 9)
    assert (rows, cols) == (1, 2)
    values = struct.unpack_from("<2d", blob, 25)
    assert values == (1.5, -2.0)
    assert len(blob) == 8 + 1 + 16 + 16


def test_read_records_order_preserved(tmp_path):
    params = [Parameter(np.zeros((2, 2)), name=f"p{i}") for i in range(5)]
    path = tmp_path / "many.bin"
    write_records(path, named(params))
    names = [name for name, _ in read_records(path)]
    assert names == [f"p{i}" for i in range(5)]


def test_load_missing_param_raises(tmp_path):
    p = Parameter(np.zeros((1, 1)), name="present")
    path = tmp_path / "x.bin"
    write_records(path, named([p]))
    other = Parameter(np.zeros((1, 1)), name="absent")
    with pytest.raises(ContractError, match="absent"):
        load_records(path, named([other]))


def test_load_shape_mismatch_raises(tmp_path):
    p = Parameter(np.zeros((2, 2)), name="w")
    path = tmp_path / "x.bin"
    write_records(path, named([p]))
    wrong = Parameter(np.zeros((2, 3)), name="w")
    with pytest.raises(ContractError, match="shape"):
        load_records(path, named([wrong]))


def test_float32_round_trip_is_exact_and_a_lossy_load_is_refused(tmp_path):
    values = np.array([[0.1, 1e-40, np.nan, np.inf, -3.0]])
    narrow = Parameter(values.astype(np.float32), name="w")
    path = tmp_path / "narrow.bin"
    write_records(path, named([narrow]))
    target = Parameter(np.zeros((1, 5), dtype=np.float32), name="w")
    load_records(path, named([target]))
    assert target.data.dtype == np.float32
    assert target.data.tobytes() == narrow.data.tobytes()

    write_records(path, named([Parameter(values, name="w")]))
    with pytest.raises(CheckpointError, match="'w'") as info:
        load_records(path, named([target]))
    assert len(str(info.value).splitlines()) == 1
    wide = Parameter(np.zeros((1, 5)), name="w")
    load_records(path, named([wide]))   # float64 targets hold every record
    assert np.array_equal(wide.data, values, equal_nan=True)


def test_a_record_past_float32s_range_is_refused_without_a_warning(tmp_path):
    # the cast into the target raised "overflow encountered in cast" before the check ran
    path = tmp_path / "huge.bin"
    write_records(path, [("w", np.array([[0.5, 1e300]]))])
    target = np.zeros((1, 2), dtype=np.float32)
    with pytest.raises(CheckpointError, match="'w'") as info:
        load_records(path, [("w", target)])
    assert len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("keep, offset", [
    (5, 0),     # inside the first name length
    (20, 17),   # inside the column count of the first record
    (-3, -24),  # inside the 3 values of the last record
])
def test_truncated_file_names_path_and_offset(tmp_path, keep, offset):
    params = [Parameter(np.arange(4.0).reshape(2, 2), name="w"),
              Parameter(np.ones((1, 3)), name="b")]
    path = tmp_path / "cut.bin"
    write_records(path, named(params))
    blob = path.read_bytes()
    offset %= len(blob)
    path.write_bytes(blob[:keep])
    with pytest.raises(CheckpointError, match=f"truncated at byte {offset}:") as info:
        read_records(path)
    assert isinstance(info.value, MarlabError)
    assert str(path) in str(info.value)


def test_absurd_name_length_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<Q", 2**62) + b"w")
    with pytest.raises(CheckpointError, match="byte 8"):
        read_records(path)


def test_name_that_is_not_utf8_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<Q", 1) + b"\xff" + struct.pack("<QQ", 0, 0))
    with pytest.raises(CheckpointError, match="byte 8 is not utf-8"):
        read_records(path)


# any float64, with the values a byte-level round trip is most likely to bend
# drawn often: NaN, both infinities, negative zero and subnormals
record_values = st.one_of(
    st.floats(width=64),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     5e-324, -2.5e-310, np.nextafter(2.2250738585072014e-308, 0)]))
records = st.lists(st.tuples(
    st.text(max_size=12),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3)),
               elements=record_values)), max_size=5)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(recs=records)
def test_write_read_records_round_trip_is_bit_exact(tmp_path, recs):
    path = tmp_path / "records.bin"
    write_records(path, recs)
    back = read_records(path)
    assert [name for name, _ in back] == [name for name, _ in recs]
    for (_, arr), (_, orig) in zip(back, recs):
        assert arr.dtype == np.float64 and arr.shape == orig.shape
        assert arr.tobytes() == orig.tobytes()


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("comm", [True, False], ids=["comm", "no_comm"])
@pytest.mark.parametrize("mixer", ["vdn", "qmix"])
def test_every_team_configuration_has_unique_parameter_names(mixer, comm, layers):
    # load_records fills arrays by name, so a repeated name would load silently
    comm_settings = CommSettings(enabled=comm, num_layers=layers, ffn_dim=8, heads=2)
    team = make_team(obs_dim=5, n_actions=3, n_agents=3, state_dim=4, hidden_dim=8,
                     mixer_kind=mixer, comm=comm_settings, seed=0)
    names = [p.name for p in team.parameters()]
    assert len(names) == len(set(names))
