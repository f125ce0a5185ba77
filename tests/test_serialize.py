"""JSON round trips for matrices, devices, scenarios and verdicts."""

import json
import os
import stat

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairsamp.adversary import makarov_traced
from fairsamp.analysis import check_exact
from fairsamp.bell import chsh_singlet_scenario
from fairsamp.device import NOCLICK
from fairsamp.filters import canonical_decomposition
from fairsamp.sampling import random_density, random_fair_sampling_device
import helpers
from fairsamp import serialize


class TestMatrixFormat:
    def test_round_trip(self, rng):
        m = random_density(3, rng)
        back = serialize.matrix_from_json(serialize.matrix_to_json(m))
        assert np.max(np.abs(back - m)) <= 1e-15

    def test_entries_are_re_im_pairs(self):
        obj = serialize.matrix_to_json(np.array([[1.0 + 2.0j]]))
        assert obj == [[[1.0, 2.0]]]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            serialize.matrix_from_json([[[1.0, 0.0], [0.0, 0.0]]])

    @pytest.mark.parametrize(
        "entry,message",
        [
            ([0.5], r"entry \[0\]\[1\] is \[0.5\], expected \[re, im\]"),
            ([0.5, 0.0, 9.0], r"entry \[0\]\[1\] is \[0.5, 0.0, 9.0\], expected \[re, im\]"),
            (0.5, r"entry \[0\]\[1\] is 0.5, expected \[re, im\]"),
            (["0.5", "0"], r"entry \[0\]\[1\] is \['0.5', '0'\], expected two numbers"),
            ([True, 0.0], r"entry \[0\]\[1\] is \[True, 0.0\], expected two numbers"),
            ([None, 0.0], r"entry \[0\]\[1\] is \[None, 0.0\], expected two numbers"),
            ([float("nan"), 0.0], r"entry \[0\]\[1\] is \[nan, 0.0\], expected finite numbers"),
            ([0.0, float("-inf")], r"entry \[0\]\[1\] is \[0.0, -inf\], expected finite numbers"),
            ([10**400, 0], r"integer too large"),
        ],
        ids=["short-pair", "long-pair", "bare-number", "strings", "bool", "null", "nan", "-inf", "huge-int"],
    )
    def test_rejects_malformed_entry(self, entry, message):
        obj = serialize.matrix_to_json(np.eye(2))
        obj[0][1] = entry
        with pytest.raises(ValueError, match=message):
            serialize.matrix_from_json(obj)

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([], "non-empty list of rows"),
            ({"0": [[0.0, 0.0]]}, "non-empty list of rows"),
            ([[[1.0, 0.0]], [[0.0, 0.0]]], r"row 0 is \[\[1.0, 0.0\]\], expected length 2"),
            ([[[1.0, 0.0], [0.0, 0.0]], "row"], r"row 1 is 'row', expected length 2"),
        ],
        ids=["empty", "dict", "short-rows", "row-not-a-list"],
    )
    def test_rejects_malformed_rows(self, obj, message):
        with pytest.raises(ValueError, match=message):
            serialize.matrix_from_json(obj)

    def test_integers_are_numbers(self):
        back = serialize.matrix_from_json([[[1, 0], [0, -2]], [[0, 2], [3, 0]]])
        np.testing.assert_array_equal(back, np.array([[1, -2j], [2j, 3]]))

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 4),
        parts=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=32, max_size=32),
    )
    def test_round_trip_is_bit_exact(self, n, parts):
        m = np.array(parts[: 2 * n * n]).view(np.complex128).reshape(n, n)
        back = serialize.matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(m))))
        assert back.dtype == np.complex128 and back.shape == (n, n)
        assert back.tobytes() == m.tobytes()

    def test_negative_zero_survives(self):
        m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
        obj = serialize.matrix_to_json(m)
        assert json.dumps(obj) == "[[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [1.0, 0.0]]]"
        assert serialize.matrix_from_json(obj).tobytes() == m.tobytes()

    def test_non_contiguous_input(self):
        m = (np.arange(16.0) + 1j * np.arange(16.0)).reshape(4, 4).T[::2, ::2]
        assert serialize.matrix_to_json(m) == [
            [[float(z.real), float(z.imag)] for z in row] for row in m
        ]


class TestDeviceFormat:
    def test_round_trip(self, rng):
        dev = random_fair_sampling_device(3, 2, 2, rng)
        back = serialize.device_from_json(serialize.device_to_json(dev))
        assert back.settings == dev.settings and back.outcomes == dev.outcomes
        for x in dev.settings:
            for a in (*dev.outcomes, NOCLICK):
                assert np.max(np.abs(back.element(x, a) - dev.element(x, a))) <= 1e-15

    def test_noclick_key_present(self):
        obj = serialize.device_to_json(makarov_traced())
        assert set(obj["povm"]["0"]) == {"+", "-", NOCLICK}

    def test_malformed_matrix_names_the_element(self):
        obj = serialize.device_to_json(makarov_traced())
        obj["povm"]["1"]["-"][1][0] = [0.5]
        with pytest.raises(ValueError, match=r"^povm\['1'\]\['-'\]: entry \[1\]\[0\]"):
            serialize.device_from_json(obj)

    def test_device_without_noclick_is_completed(self):
        obj = serialize.device_to_json(makarov_traced())
        for row in obj["povm"].values():
            row.pop(NOCLICK)
        dev = serialize.device_from_json(obj)
        np.testing.assert_allclose(dev.noclick_element("0"), 0.75 * np.eye(2), atol=1e-12)


class TestScenarioFormat:
    def test_inline_round_trip(self):
        sc = chsh_singlet_scenario()
        back = serialize.scenario_from_json(serialize.scenario_to_json(sc))
        assert np.max(np.abs(back.psi - sc.psi)) <= 1e-15
        assert back.bell_coeffs == sc.bell_coeffs

    @pytest.mark.parametrize("bell", ["absent", None])
    def test_absent_or_null_bell_means_no_functional(self, bell):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        if bell == "absent":
            del obj["bell"]
        else:
            obj["bell"] = bell
        assert serialize.scenario_from_json(obj).bell_coeffs is None

    def test_device_file_reference(self, tmp_path):
        sc = chsh_singlet_scenario()
        serialize.dump_json(serialize.device_to_json(sc.devices[0]), tmp_path / "a.json")
        serialize.dump_json(serialize.device_to_json(sc.devices[1]), tmp_path / "b.json")
        obj = serialize.scenario_to_json(sc)
        obj["parties"][0]["device"] = "a.json"
        obj["parties"][1]["device"] = "b.json"
        back = serialize.scenario_from_json(obj, base_dir=tmp_path)
        assert back.devices[0].settings == sc.devices[0].settings

    def test_device_file_read_through_load_json(self, tmp_path, monkeypatch):
        sc = chsh_singlet_scenario()
        serialize.dump_json(serialize.device_to_json(sc.devices[1]), tmp_path / "b.json")
        obj = serialize.scenario_to_json(sc)
        obj["parties"][1]["device"] = "b.json"
        read = []
        original = serialize.load_json

        def spy(path):
            read.append(path)
            return original(path)

        monkeypatch.setattr(serialize, "load_json", spy)
        serialize.scenario_from_json(obj, base_dir=tmp_path)
        assert read == [tmp_path / "b.json"]

    def test_malformed_state_named(self):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["state"][2][0] = ["0.5", "0"]
        with pytest.raises(ValueError, match=r"^state: entry \[2\]\[0\]"):
            serialize.scenario_from_json(obj)

    def test_malformed_party_matrix_named(self, tmp_path):
        sc = chsh_singlet_scenario()
        device = serialize.device_to_json(sc.devices[1])
        device["povm"]["0"]["+"][0][0] = [float("nan"), 0.0]
        serialize.dump_json(device, tmp_path / "b.json")
        obj = serialize.scenario_to_json(sc)
        obj["parties"][1]["device"] = "b.json"
        with pytest.raises(ValueError, match=r"^party 1: povm\['0'\]\['\+'\]: entry \[0\]\[0\]"):
            serialize.scenario_from_json(obj, base_dir=tmp_path)

    def test_dimension_mismatch_rejected(self):
        sc = chsh_singlet_scenario()
        obj = serialize.scenario_to_json(sc)
        obj["parties"][0]["dim"] = 7
        with pytest.raises(ValueError, match="dimension"):
            serialize.scenario_from_json(obj)


MALFORMED_DEVICE_FIELDS = pytest.mark.parametrize(
    "field,value,message",
    [
        ("dim", None, r"^dim must be a positive integer, got None"),
        ("dim", 2.0, r"^dim must be a positive integer, got 2\.0"),
        ("dim", True, r"^dim must be a positive integer, got True"),
        ("dim", 0, r"^dim must be a positive integer, got 0"),
        ("settings", "01", r"^settings must be a list of strings, got '01'"),
        ("settings", [0, 1], r"^settings must be a list of strings, got \[0, 1\]"),
        ("outcomes", None, r"^outcomes must be a list of strings, got None"),
        ("povm", [], r"^povm must be a JSON object, got \[\]"),
        ("povm", {"0": []}, r"^povm\['0'\] must be a JSON object, got \[\]"),
    ],
)


class TestMalformedFields:
    """A malformed field raises ValueError naming it, never TypeError or a silent coercion."""

    @MALFORMED_DEVICE_FIELDS
    def test_device_field(self, field, value, message):
        obj = serialize.device_to_json(makarov_traced())
        obj[field] = value
        with pytest.raises(ValueError, match=message):
            serialize.device_from_json(obj)

    @pytest.mark.parametrize("field", ["dim", "settings", "outcomes", "povm"])
    def test_missing_device_field(self, field):
        obj = serialize.device_to_json(makarov_traced())
        del obj[field]
        with pytest.raises(ValueError, match=f"^missing field '{field}'"):
            serialize.device_from_json(obj)

    def test_device_must_be_an_object(self):
        with pytest.raises(ValueError, match=r"^device must be a JSON object"):
            serialize.device_from_json([1, 2])

    @MALFORMED_DEVICE_FIELDS
    def test_inline_party_device_field(self, field, value, message):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["parties"][1]["device"][field] = value
        with pytest.raises(ValueError, match="^party 1: " + message[1:]):
            serialize.scenario_from_json(obj)

    @pytest.mark.parametrize("value", [None, "2", 2.0])
    def test_party_dim(self, value):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        obj["parties"][0]["dim"] = value
        with pytest.raises(ValueError, match=r"^party 0: dim must be a positive integer"):
            serialize.scenario_from_json(obj)

    @pytest.mark.parametrize("value", [None, "2.5", True, [1.0], float("nan"), float("inf"), 10**400])
    def test_coefficient_value(self, value):
        coeffs = serialize.coeffs_to_json(chsh_singlet_scenario().bell_coeffs)
        coeffs[3]["c"] = value
        with pytest.raises(ValueError, match=r"^coeffs\[3\]\.c must be a finite JSON number, got "):
            serialize.coeffs_from_json(coeffs)

    def test_integer_coefficient_is_a_number(self):
        coeffs = serialize.coeffs_to_json(chsh_singlet_scenario().bell_coeffs)
        coeffs[0]["c"] = 2
        assert serialize.coeffs_from_json(coeffs)[(("0", "0"), ("+", "+"))] == 2.0

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: c[2].pop("a"), r"^missing field 'a' in coeffs\[2\]"),
            (lambda c: c[2].update(x=["0", 1]), r"^coeffs\[2\]\.x must be a list of strings"),
            (lambda c: c.__setitem__(1, 5), r"^coeffs\[1\] must be a JSON object"),
        ],
        ids=["missing-a", "x-label", "entry"],
    )
    def test_coefficient_entry(self, edit, message):
        coeffs = serialize.coeffs_to_json(chsh_singlet_scenario().bell_coeffs)
        edit(coeffs)
        with pytest.raises(ValueError, match=message):
            serialize.coeffs_from_json(coeffs)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda o: o.__setitem__("parties", {}), r"^parties must be a list"),
            (lambda o: o["parties"][0].pop("device"), r"^party 0: missing field 'device'"),
            (lambda o: o["parties"].__setitem__(1, 3), r"^party 1 must be a JSON object"),
            (lambda o: o.pop("state"), r"^missing field 'state'"),
            (lambda o: o.__setitem__("bell", [1]), r"^bell must be a JSON object"),
            (lambda o: o.__setitem__("bell", []), r"^bell must be a JSON object, got \[\]$"),
            (lambda o: o.__setitem__("bell", 0), r"^bell must be a JSON object, got 0$"),
            (lambda o: o.__setitem__("bell", ""), r"^bell must be a JSON object, got ''$"),
            (lambda o: o.__setitem__("bell", False), r"^bell must be a JSON object, got False$"),
            (lambda o: o.__setitem__("bell", {}), r"^missing field 'coeffs' in bell$"),
            (lambda o: o["bell"].__setitem__("coeffs", {}), r"^coeffs must be a list"),
        ],
        ids=[
            "parties", "party-device", "party", "state", "bell", "bell-empty-list", "bell-zero",
            "bell-empty-string", "bell-false", "bell-empty-object", "coeffs",
        ],
    )
    def test_scenario_structure(self, tmp_path, edit, message):
        obj = serialize.scenario_to_json(chsh_singlet_scenario())
        edit(obj)
        with pytest.raises(ValueError, match=message):
            serialize.scenario_from_json(obj, base_dir=tmp_path)


class TestReportPieces:
    def test_verdict_fields(self):
        payload = serialize.verdict_to_json(check_exact(makarov_traced()))
        assert set(payload) == {
            "weak", "strong", "homogeneous", "epsilon", "classical_eff", "mq", "support",
        }
        assert payload["weak"] is True

    def test_decomposition_payloads(self):
        dc = canonical_decomposition(makarov_traced())
        filters_json, lossless_json = serialize.decomposition_to_json(dc)
        assert set(filters_json["kraus"]) == {"0", "1"}
        assert "povm" in lossless_json

    def test_sig15(self):
        assert serialize.sig15(0.1234567890123456789) == 0.123456789012346
        assert serialize.sig15(1.0) == 1.0

    def test_distribution_flattening(self):
        obj = serialize.distribution_to_json({("+", "-"): 0.25, ("-", "+"): 0.75})
        assert obj == {"+,-": 0.25, "-,+": 0.75}


def test_dump_json_is_deterministic(tmp_path):
    payload = {"b": 1.0, "a": [1, 2, 3]}
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    serialize.dump_json(payload, p1)
    serialize.dump_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == payload


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_dump_json_gives_a_new_file_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        serialize.dump_json({"a": 1}, tmp_path / "new.json")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == 0o666 & ~umask
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("mode", [0o644, 0o600, 0o640, 0o666])
def test_dump_json_keeps_an_overwritten_file_mode(tmp_path, mode):
    path = tmp_path / "old.json"
    path.write_text("{}")
    os.chmod(path, mode)
    serialize.dump_json({"a": 1}, path)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert json.loads(path.read_text()) == {"a": 1}


# --- the writer against its oracle, json.dumps(obj, indent=2, sort_keys=True)

SPECIAL_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1e16, 1e-7]
)
FLOATS = st.one_of(st.floats(), SPECIAL_FLOATS)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    FLOATS,
    FLOATS.map(np.float64),
    st.text(max_size=8),
)
#: One key strategy per dict: sort_keys needs the keys of a dict to be comparable.
KEYS = st.sampled_from([
    st.text(max_size=6),
    st.text(alphabet="\"\\\n\t\x00\x7f é✓😀", max_size=4),
    st.one_of(st.integers(-5, 5), st.floats(), st.booleans()),
    st.none(),
])


@st.composite
def float_blocks(draw):
    """Rectangular nested float lists, optionally made ragged or given a non-float leaf."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    size = int(np.prod(shape))
    leaves = draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), FLOATS),
                           min_size=size, max_size=size))
    flaw = draw(st.sampled_from(["none", "none", "int", "bool", "float64", "ragged", "tuple"]))
    if flaw in ("int", "bool", "float64"):
        i = draw(st.integers(0, size - 1))
        leaves[i] = {"int": 1, "bool": True, "float64": np.float64(leaves[i])}[flaw]
    block = leaves
    for n in reversed(shape[1:]):
        block = [block[k:k + n] for k in range(0, len(block), n)]
    if flaw == "ragged":
        block[-1] = block[-1][:-1] if isinstance(block[-1], list) else [block[-1]]
    if flaw == "tuple" and isinstance(block[0], list):
        block[0] = tuple(block[0])
    return block


PAYLOADS = st.recursive(
    st.one_of(LEAVES, float_blocks(), st.dictionaries(st.text(max_size=6), FLOATS, max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_matches_json_dumps(obj):
    assert serialize.dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [
        [object()],
        {"a": {1j: 0.0}},
        {"a": 1.0, 2: 1.0},
        {"a": np.zeros(2)},
    ],
)
def test_writer_raises_as_json_does(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        serialize.dump_json(obj)
    assert str(got.value) == str(expected.value)


def test_writer_rejects_circular_lists():
    inner = [1.0]
    outer = [inner, [2.0]]
    inner.append(outer)
    loop = []
    loop.append(loop)
    for obj in (outer, loop, {"a": loop}):
        with pytest.raises(ValueError, match="Circular reference detected"):
            serialize.dump_json(obj)


def _circular_blocks():
    """Circular lists that are rectangular at every level the float-block scan reads."""
    row_then_loop = [[0.5, 0.25]]
    row_then_loop.append(row_then_loop)  # the loop sits beside a row of floats
    wide = []
    wide.extend([wide] * 3)
    deep = [[[0.5]]]
    deep[0].append(deep)  # rows of lists, the second one the block itself
    return {"row then loop": row_then_loop, "wide": wide, "deep": deep}


@pytest.mark.parametrize("name", list(_circular_blocks()))
def test_writer_rejects_circular_blocks(name):
    obj = _circular_blocks()[name]
    for payload in (obj, [obj], {"a": obj}):
        with pytest.raises(ValueError, match="Circular reference detected"):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(ValueError, match="Circular reference detected"):
            serialize.dump_json(payload)


@pytest.mark.parametrize("depth", [0, 3, 8, 40])
def test_deep_float_blocks_match_json_dumps(depth):
    """A float block of any depth takes the fast path and is written as ``json`` writes it."""
    block = [[0.5, -0.0, 3.49e-6], [1e16, 0.1, 2.0]]
    for _ in range(depth):
        block = [block]
    assert serialize._float_block(block, 0) is not None
    for payload in (block, {"a": block}, [block, block]):
        assert serialize.dump_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_orjson_spells_floats_as_float_blocks_assume():
    """The float-block writer takes orjson's tokens for a float64 array, and trusts them outside the
    ranges that its bounds name; inside them it writes ``repr``.  An orjson that spells these
    otherwise, or spells an array's values otherwise than the same floats in a list, fails here first."""
    bounds = [serialize.PADDED_EXPONENT_FROM, serialize.POSITIONAL_FROM, serialize.EXPONENT_FROM]
    below = [9.999999999999999e-10, 1.5e-17, 5e-324, 9.999999999999999e-5, 9.999999999999998e15, 1e15, 0.0, -0.0]
    inside = [1e-5, 3.49e-6, -2.5e300]
    spelled = {
        b"[1e-9,0.0001,1e16]": bounds,
        b"[9.999999999999999e-10,1.5e-17,5e-324,0.00009999999999999999,9999999999999998.0,1000000000000000.0,0.0,-0.0]": below,
        b"[0.00001,3.49e-6,-2.5e300]": inside,
    }
    for text, values in spelled.items():
        assert orjson.dumps(values) == text
        assert orjson.dumps(np.array(values), option=orjson.OPT_SERIALIZE_NUMPY) == text
    assert orjson.dumps(serialize.POSITIONAL_FROM) == b"0.0001" and orjson.dumps(serialize.EXPONENT_FROM) == b"1e16"


def _writer_doubles() -> tuple[np.ndarray, np.ndarray]:
    """Seeded finite doubles: random bit patterns and hard cases of both signs, and the bands around each spelling bound."""
    rng = np.random.default_rng(20261019)
    random_bits = rng.integers(0, 2**64, size=160_000, dtype=np.uint64).view(np.float64)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([powers_of_two, powers_of_ten, [2.2250738585072014e-308, 2.225073858507201e-308]])
    subnormals = rng.integers(1, 2**52, size=2_000, dtype=np.uint64).view(np.float64)
    bands = np.concatenate([rng.uniform(lo, hi, size=1_000) for lo, hi in BOUND_BANDS])
    hard = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), subnormals, bands, [0.0]])
    return np.concatenate([random_bits[np.isfinite(random_bits)], hard, -hard]), np.concatenate([bands, -bands])


#: Magnitudes around each bound of ``serialize.PADDED_EXPONENT_FROM``, ``1e-5`` (where orjson
#: turns positional), ``serialize.POSITIONAL_FROM`` and ``serialize.EXPONENT_FROM``.
BOUND_BANDS = ((9e-10, 1.1e-9), (9e-6, 1.1e-5), (9e-5, 1.1e-4), (9e15, 1.1e16))


def _nested(payload, level: int):
    for _ in range(level):
        payload = {"m": payload}
    return payload


def test_float_blocks_match_json_dumps_on_hard_doubles():
    """Seeded: about 190 000 doubles in float blocks against ``json.dumps``.

    All of them in blocks of every depth up to 3 at indent levels 0 to 4, and
    again as the parts of complex matrices in ``MatrixBlock``s at those
    levels; and each one near a spelling bound in a block of its own.
    """
    values, bands = _writer_doubles()
    values = np.random.default_rng(1019).permutation(values)
    shapes = [(-1,), (-1, 2), (-1, 3, 2), (-1, 2, 3), (-1, 6)]
    for level, part in enumerate(np.array_split(values, len(shapes))):
        block = np.concatenate([part, np.zeros(-part.size % 6)]).reshape(shapes[level]).tolist()
        assert serialize._float_block(block, level) is not None
        payload = _nested(block, level)
        assert serialize.dump_json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    for level, part in enumerate(np.array_split(values, 5)):
        n = int(np.sqrt(part.size // 2))
        matrix = part[: 2 * n * n].view(np.complex128).reshape(n, n)
        written = serialize.dump_json(_nested(serialize.matrix_block(matrix), level))
        assert written == json.dumps(_nested(serialize.matrix_to_json(matrix), level), indent=2, sort_keys=True)
    singles = {f"{i:05d}": [x] for i, x in enumerate(bands.tolist())}
    assert serialize.dump_json(singles) == json.dumps(singles, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[complex(np.nan, -0.0), complex(np.inf, 1.0)], [complex(-np.inf, np.nan), -0.0]]),
        np.zeros((0, 0)),
        np.zeros((2, 0)),
        np.arange(6.0).reshape(2, 3)[:, ::2],
    ],
    ids=["non-finite", "empty", "empty-rows", "non-contiguous"],
)
def test_matrix_blocks_are_written_as_their_lists(matrix):
    for level in range(3):
        written = serialize.dump_json(_nested(serialize.matrix_block(matrix), level))
        assert written == json.dumps(_nested(serialize.matrix_to_json(matrix), level), indent=2, sort_keys=True)


# --- joint tables rendered in one pass against the dict they stand for

#: Doubles whose ``.15g`` text is not their ``repr`` after rounding: integers (``-0`` included),
#: the exponent-15 decade, subnormals and their border, the non-finite values.
TOKEN_EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.9999999999999999, 1e-16, 123456789012345.6, 999999999999999.9,
    1e15, -1e15, 1.5e15, 9.999999999999999e15, 1e16, 1e-5, 1e-4, 1.5e-30, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
]
ALL_DOUBLES = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from(TOKEN_EDGES),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ALL_DOUBLES, min_size=1, max_size=40))
def test_rendered_entries_read_as_sig15(values):
    labels = serialize.TableLabels(f"{i:03d}" for i in range(len(values)))
    expected = tuple(serialize._float_text(serialize.sig15(x)) for x in values)
    assert labels.tokens(np.array(values)) == expected


def test_rendered_edges_read_as_sig15():
    labels = serialize.TableLabels(f"{i:03d}" for i in range(len(TOKEN_EDGES)))
    rendered = labels.tokens(np.array(TOKEN_EDGES))
    assert rendered == tuple(serialize._float_text(serialize.sig15(x)) for x in TOKEN_EDGES)
    assert rendered[:4] == ("0.0", "-0.0", "1.0", "-1.0")
    assert rendered[-3:] == ("NaN", "Infinity", "-Infinity")


#: Labels needing escapes or a ``%`` left alone, and labels whose sorted order is not their order.
TABLE_LABELS = st.one_of(st.text(max_size=5), st.sampled_from(["é", '"', "\\", "%", "%s", "b,a", "a,b", "Z", "a"]))


@st.composite
def labelled_tables(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
    size = int(np.prod(shape))
    labels = draw(st.lists(TABLE_LABELS, min_size=size, max_size=size, unique=True))
    values = draw(st.lists(st.one_of(st.floats(0.0, 1.0), ALL_DOUBLES), min_size=size, max_size=size))
    return labels, np.array(values, dtype=float).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(st.lists(labelled_tables(), min_size=1, max_size=3))
def test_rendered_tables_match_json_dumps(tables):
    rendered = {"raw": {}, "acceptance": 0.5}
    oracle = {"raw": {}, "acceptance": 0.5}
    for i, (labels, table) in enumerate(tables):
        rendered["raw"][f"t{i}"] = serialize.table_to_json(serialize.TableLabels(labels), table)
        oracle["raw"][f"t{i}"] = dict(zip(labels, map(serialize.sig15, table.ravel().tolist())))
    text = serialize.dump_json(rendered)
    assert text == json.dumps(oracle, indent=2, sort_keys=True)
    for i, (labels, table) in enumerate(tables):
        legacy = helpers.legacy_float_table(helpers.legacy_table_to_json(labels, table), 2)
        assert legacy is None or legacy == rendered["raw"][f"t{i}"].text(2)


def test_labels_are_sorted_once_for_every_table():
    labels = serialize.TableLabels(["b", "é", "a", '"'])
    assert labels.order.tolist() == [3, 2, 0, 1]
    first = serialize.table_to_json(labels, np.array([0.25, 0.5, 0.0, 1.0]))
    second = serialize.table_to_json(labels, np.array([0.5, 0.25, 1.0, 1 / 3]))
    assert serialize.dump_json([first, second]) == json.dumps(
        [{"b": 0.25, "é": 0.5, "a": 0.0, '"': 1.0}, {"b": 0.5, "é": 0.25, "a": 1.0, '"': 0.333333333333333}],
        indent=2,
        sort_keys=True,
    )


# A finite value that ``%.15g`` rounds past the largest double (``1.79769313486232e+308``) rounds
# toward zero instead, in ``sig15``, in a rendered table and so in ``dump_json``'s text.
TOP_DECADE = [float(np.nextafter(1.797693134862315e308, np.inf)), 1.7976931348623157e308]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_sig15_keeps_the_largest_doubles_finite(sign):
    values = [sign * x for x in TOP_DECADE]
    largest = sign * 1.79769313486231e308
    assert serialize.LARGEST_SIG15 == 1.79769313486231e308
    assert [serialize.sig15(x) for x in values] == [largest, largest]
    assert serialize.sig15(sign * 1.797693134862315e308) == largest  # rounds down, no overflow to mend
    text = repr(largest)
    labels = serialize.TableLabels(["a", "b", "c"])
    table = np.array([*values, sign * np.inf])
    assert labels.tokens(table) == (text, text, "Infinity" if sign > 0 else "-Infinity")
    assert serialize.dump_json([serialize.sig15(values[1]), serialize.table_to_json(labels, table)]) == json.dumps(
        [largest, {"a": largest, "b": largest, "c": sign * np.inf}], indent=2, sort_keys=True
    )


# --- the orjson reader against its oracle, json.load of the file opened as UTF-8 text


@pytest.fixture(scope="module")
def json_file(tmp_path_factory):
    return tmp_path_factory.mktemp("load_json") / "input.json"


def json_load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_outcome(read, path):
    """``("value", v)`` of ``read(path)``, or ``("error", type, message)`` of what it raises."""
    try:
        return ("value", read(path))
    except Exception as exc:  # the oracle's exceptions are compared, whatever they are
        return ("error", type(exc), str(exc))


def same_value(a, b) -> bool:
    """Equal JSON values of the same types, floats to the bit and object keys in the same order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    if type(a) is list:
        return len(a) == len(b) and all(map(same_value, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(map(same_value, a.values(), b.values()))
    return a == b


def assert_reads_as_json_does(data: bytes, path):
    path.write_bytes(data)
    got, expected = read_outcome(serialize.load_json, path), read_outcome(json_load, path)
    if expected[0] == "value":
        assert got[0] == "value" and same_value(got[1], expected[1])
    else:
        assert got == expected


class Members(list):
    """A JSON object written as its ``(key, value)`` members, so that a key may repeat."""


def json_text(value, ascii_only: bool, sep: str) -> str:
    if isinstance(value, Members):
        members = (json.dumps(k, ensure_ascii=ascii_only) + ":" + json_text(v, ascii_only, sep) for k, v in value)
        return "{" + sep.join(members) + "}"
    if isinstance(value, list):
        return "[" + sep.join(json_text(v, ascii_only, sep) for v in value) + "]"
    return json.dumps(value, ensure_ascii=ascii_only)


JSON_STRINGS = st.text(st.one_of(st.characters(), st.sampled_from('é✓😀𐏿"\\/\x00\x1f[]{}')), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**63), 2**64 - 1), ALL_DOUBLES, JSON_STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.tuples(st.one_of(st.sampled_from(["a", "b", "é", "\ud800"]), JSON_STRINGS), children), max_size=4)
        .map(Members),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, st.booleans(), st.sampled_from([",", ", ", ",\n  ", ",\r\n", "\t,"]))
def test_reader_matches_json_load(json_file, value, ascii_only, sep):
    """Texts with every double, non-ASCII and lone-surrogate strings (escaped, or as invalid UTF-8) and repeated keys."""
    assert_reads_as_json_does(json_text(value, ascii_only, sep).encode("utf-8", "surrogatepass"), json_file)


NUMBER_TEXTS = st.from_regex(r"-?(0|[1-9][0-9]{0,39})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(NUMBER_TEXTS)
def test_reader_parses_decimal_text_to_the_bit(json_file, text):
    json_file.write_text(text)
    expected = json.loads(text)
    if type(expected) is int and not -(2**63) <= expected < 2**64:
        try:
            expected = float(expected)  # the one deliberate difference, pinned below
        except OverflowError:
            pass
    assert same_value(serialize.load_json(json_file), expected)


def nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


ODD_INPUTS = {
    "nan": b"NaN",
    "-infinity": b"-Infinity",
    "non-finite-in-array": b'{"a": [Infinity, 1.5, -Infinity, NaN]}',
    "1e400": b"1e400",
    "-1e400-in-object": b'{"c": -1e400}',
    "underflow": b"[1e-400, -1e-400, 2.4703282292062328e-324]",
    "huge-integer": b"1" + b"0" * 400,
    "lone-surrogate": b'"\\ud800"',
    "surrogate-pair": b'"\\ud83d\\ude00"',
    "invalid-utf8": b'"\xff"',
    "utf8-surrogate": b'"\xed\xa0\x80"',
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "crlf": b'{\r\n  "a": [1,\r\n    2]\r\n}',
    "crlf-error": b'{\r\n  "a": [1,\r\n    2,]\r\n}',
    "cr-error": b'{\r"a":\r[1,\r]}',
    "form-feed": b"\x0c[1]",
    "trailing-comma": b"[1,]",
    "trailing-garbage": b"[1] x",
    "trailing-nul": b"[1]\x00",
    "raw-tab-in-string": b'"a\tb"',
    "bad-escape": b'"\\x"',
    "leading-zero": b"01",
    "empty": b"",
    "blank": b" \n ",
    "duplicate-keys": b'{"a": 1, "b": 2, "a": 3}',
    "negative-zero": b"[-0, -0.0, 0e5]",
    "past-limit-depth": nested(serialize.ORJSON_MAX_DEPTH + 1),
    "bracket-in-string": b'[["]]]"], [[{"a": "[{"}]]]',
}


@pytest.mark.parametrize("data", list(ODD_INPUTS.values()), ids=list(ODD_INPUTS))
def test_reader_handles_odd_inputs_as_json_does(json_file, data):
    """The value, or the exception type and message (positions included), that ``json.load`` gives."""
    assert_reads_as_json_does(data, json_file)


@pytest.mark.parametrize(
    "text,value",
    [
        ("18446744073709551616", 1.8446744073709552e19),
        ("-9223372036854775809", -9.223372036854776e18),
        ("[1" + "0" * 30 + "]", [1e30]),
    ],
)
def test_integers_past_64_bits_read_as_floats(json_file, text, value):
    """The one deliberate difference from ``json``: an integer outside [-2**63, 2**64) reads as the nearest float."""
    json_file.write_text(text)
    assert json_load(json_file) != value or type(json_load(json_file)) is not type(value)
    assert same_value(serialize.load_json(json_file), value)


@pytest.mark.parametrize("text", ["18446744073709551615", "-9223372036854775808"])
def test_integers_within_64_bits_stay_integers(json_file, text):
    json_file.write_text(text)
    assert same_value(serialize.load_json(json_file), int(text))


def test_deep_texts_never_reach_orjson(json_file, monkeypatch):
    """orjson 3.8 has no depth limit: a deep enough text overflows the C stack.

    A text at the limit is read by orjson, where ``json`` may raise ``RecursionError``.
    """
    seen = []
    loads = serialize.orjson.loads
    monkeypatch.setattr(serialize.orjson, "loads", lambda data: seen.append(len(data)) or loads(data))
    json_file.write_bytes(nested(serialize.ORJSON_MAX_DEPTH + 1))
    with pytest.raises(RecursionError):
        serialize.load_json(json_file)
    json_file.write_bytes(b'["[' + b"[" * 2000 + b'"]')  # a bracket in a string counts as deep
    assert serialize.load_json(json_file) == ["[" * 2001]
    assert seen == []
    json_file.write_bytes(nested(serialize.ORJSON_MAX_DEPTH))
    value = serialize.load_json(json_file)
    assert seen == [2 * serialize.ORJSON_MAX_DEPTH]
    for _ in range(serialize.ORJSON_MAX_DEPTH - 1):
        (value,) = value
    assert value == []


def test_a_very_deep_text_raises_instead_of_crashing(tmp_path):
    """Half a million nested objects: json's ``RecursionError``, where orjson 3.8 would kill the process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "deep.json"
    path.write_bytes(b'{"a":' * 500_000 + b"1" + b"}" * 500_000)
    script = (
        "import sys\nfrom fairsamp import serialize\n"
        "try:\n    serialize.load_json(sys.argv[1])\nexcept RecursionError:\n    sys.exit(3)\n"
    )
    src = str(Path(serialize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, timeout=120, env=env)
    assert result.returncode == 3, result.stderr


def json_depth(value) -> int:
    if isinstance(value, Members):
        return 1 + max((json_depth(v) for _, v in value), default=0)
    if isinstance(value, list):
        return 1 + max(map(json_depth, value), default=0)
    return 0


def has_bracket_string(value) -> bool:
    if isinstance(value, str):
        return any(c in value for c in "[]{}")
    if isinstance(value, Members):
        return any(has_bracket_string(k) or has_bracket_string(v) for k, v in value)
    return isinstance(value, list) and any(map(has_bracket_string, value))


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES, st.booleans())
def test_depth_scan_never_reads_a_text_as_shallower_than_it_is(value, ascii_only):
    """Exact when no string holds a bracket (quotes and backslashes in strings never count); else deep."""
    data = json_text(value, ascii_only, ", ").encode("utf-8", "surrogatepass")
    depth = json_depth(value)
    assert not serialize._nests_at_most(data, depth - 1)
    assert serialize._nests_at_most(data, depth) is not has_bracket_string(value)


# --- previews of offending values in field errors

PREVIEW_STRINGS = st.one_of(
    st.text(st.one_of(st.characters(), st.sampled_from("'\"\\\n\t\x00\x7f\ud800é😀")), max_size=50),
    st.builds(str.__add__, st.text(max_size=45), st.text(alphabet="'\"", max_size=2)),
    st.builds(str.__mul__, st.sampled_from(["'", '"', "a", "\\", "\n", "😀"]), st.integers(30, 200)),
)
PREVIEW_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**64), 2**64), ALL_DOUBLES, PREVIEW_STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(PREVIEW_STRINGS, children, max_size=5)
    ),
    max_leaves=20,
)


def wrapped(value, depth: int, kind: str):
    """``value`` wrapped ``depth`` times in a one-item list or a one-member object."""
    for _ in range(depth):
        value = [value] if kind == "list" else {"k": value}
    return value


@settings(max_examples=400, deadline=None)
@given(PREVIEW_VALUES, st.one_of(st.integers(0, 3), st.integers(0, 500)), st.sampled_from(["list", "dict"]))
@example({"b": 1, "a": ["x" * 50]}, 0, "list")
@example("'" * 39 + '"', 0, "list")
@example("a" * 45 + "'", 0, "list")
def test_preview_is_the_start_of_repr(value, depth, kind):
    """Dicts in insertion order, long strings quoted as repr quotes them whole, escapes, nesting."""
    value = wrapped(value, depth, kind)
    assert serialize._preview(value) == repr(value)[: serialize.PREVIEW_CHARS]


def test_preview_enters_no_more_levels_than_it_writes():
    assert serialize._preview(wrapped([], 100_000, "list")) == "[" * 40
    assert serialize._preview(wrapped(0, 100_000, "dict")) == ("{'k': " * 7)[:40]


@pytest.mark.parametrize(
    "parse", [serialize.device_from_json, serialize.scenario_from_json, serialize.matrix_from_json]
)
def test_parsers_name_a_value_nested_past_the_recursion_limit(parse):
    with pytest.raises(ValueError, match=r"(got|is) \[{40}"):
        parse(wrapped([], 10_000, "list"))
