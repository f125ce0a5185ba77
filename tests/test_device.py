"""Lossy device construction, raw statistics and post-selection."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers

from fairsamp.analysis import check_exact, ideal_device_from
from fairsamp.bell import BellScenario
from fairsamp.device import (
    NOCLICK,
    LossyDevice,
    LosslessDevice,
    ZeroAcceptanceError,
    projective_qubit_device,
    total_variation,
)
from fairsamp.filters import canonical_decomposition
from fairsamp.linalg import (
    COMPLETENESS_TOL,
    MAX_DIM,
    SCREEN_FROM_DIM,
    ZERO_ACCEPTANCE,
    NotPositiveError,
    operator_norms,
    projector,
)
from fairsamp.optics import single_photon_analyser
from fairsamp.sampling import random_density, random_povm


@pytest.fixture
def lossless_z():
    return projective_qubit_device({"z": 0.0})


@pytest.fixture
def traced():
    from fairsamp.adversary import makarov_traced

    return makarov_traced()


class TestConstruction:
    def test_noclick_inferred_from_completeness(self):
        dev = LossyDevice(2, ["x"], ["a"], {"x": {"a": 0.3 * np.eye(2)}})
        np.testing.assert_allclose(dev.noclick_element("x"), 0.7 * np.eye(2), atol=1e-12)

    def test_explicit_noclick_checked(self):
        povm = {"x": {"a": 0.3 * np.eye(2), NOCLICK: 0.5 * np.eye(2)}}
        with pytest.raises(ValueError, match="completeness"):
            LossyDevice(2, ["x"], ["a"], povm)

    def test_non_psd_element_rejected(self):
        with pytest.raises(ValueError):
            LossyDevice(2, ["x"], ["a"], {"x": {"a": np.diag([1.0, -0.2])}})

    def test_reserved_label(self):
        with pytest.raises(ValueError):
            LossyDevice(2, ["x"], [NOCLICK], {"x": {NOCLICK: np.eye(2)}})

    @pytest.mark.parametrize("cls", [LossyDevice, LosslessDevice])
    @pytest.mark.parametrize("dim", [0, -1, MAX_DIM + 1])
    def test_dimension_outside_the_cap_rejected(self, cls, dim):
        """A stack input never passes through ``as_operator``, so the device checks ``dim`` itself."""
        stack = np.empty((0, 1, max(dim, 0), max(dim, 0)), dtype=complex)  # zero settings: nothing allocated
        for povm in (stack, {}):
            with pytest.raises(ValueError, match=re.escape(f"device dimension {dim} outside [1, {MAX_DIM}]")):
                cls(dim, [], ["a"], povm)

    @pytest.mark.parametrize("cls", [LossyDevice, LosslessDevice])
    def test_no_settings_rejected(self, cls):
        """A device without settings measures nothing; it is refused for a stack and a mapping alike."""
        for povm in (np.empty((0, 1, 2, 2), dtype=complex), {}):
            with pytest.raises(ValueError, match="^a device needs at least one setting; the setting list is empty$"):
                cls(2, [], ["a"], povm)

    def test_elements_are_read_only(self, traced):
        with pytest.raises(ValueError):
            traced.element("0", "+")[0, 0] = 9.0

    def test_input_arrays_are_copied_not_frozen(self):
        m = 0.3 * np.eye(2, dtype=complex)
        dev = LossyDevice(2, ["x"], ["a"], {"x": {"a": m}})
        m[0, 0] = 9.0
        assert dev.element("x", "a")[0, 0] == 0.3


class TestStack:
    """One read-only (settings, outcomes + 1, dim, dim) array holds every element."""

    def test_layout_noclick_last(self, traced):
        assert traced.stack.shape == (2, 3, 2, 2)
        assert not traced.stack.flags.writeable
        for i, x in enumerate(traced.settings):
            for j, a in enumerate((*traced.outcomes, NOCLICK)):
                assert np.shares_memory(traced.element(x, a), traced.stack)
                np.testing.assert_array_equal(traced.stack[i, j], traced.element(x, a))
            np.testing.assert_array_equal(traced.noclick_element(x), traced.stack[i, -1])

    def test_click_elements_stack_the_click_element_of_each_setting(self, rng):
        dev = helpers.random_multisetting_device(rng, 3, 3, 2)
        clicks = dev.click_elements()
        for i, x in enumerate(dev.settings):
            np.testing.assert_array_equal(clicks[i], dev.click_element(x))
            np.testing.assert_array_equal(clicks[i], sum(dev.element(x, a) for a in dev.outcomes))

    def test_lossless_device_stacks_its_outcomes(self):
        dev = LosslessDevice(2, ["x", "y"], ["a"], {"x": {"a": np.diag([1.0, 0.0])}, "y": {"a": np.eye(2)}})
        assert dev.stack.shape == (2, 2, 2, 2)  # a lossy device's stack: the no-click row 1 - support last
        np.testing.assert_array_equal(dev.element("x", NOCLICK), np.eye(2) - dev.click_element("x"))

    def test_one_eigvalsh_call_per_device(self, rng, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or original(a))
        dev = helpers.random_multisetting_device(rng, 3, 4, 2)
        assert calls == [(4 * 3, 3, 3)]  # settings * (outcomes + 1) elements
        calls.clear()
        lossless = LosslessDevice(
            2, ["x", "y"], ["a", "b"], {x: {"a": np.diag([1.0, 0.0]), "b": np.diag([0.0, 1.0])} for x in "xy"}
        )
        assert calls == [(2 * 3, 2, 2)]  # the good elements and the no-click ones to_lossy adds
        calls.clear()
        lossless.to_lossy()
        assert calls == []  # checked when the lossless device was built
        assert dev.stack.shape == (4, 3, 3, 3)

    def test_one_cholesky_call_above_the_gate(self, rng, monkeypatch):
        """A valid device is certified by the screen alone; a faulty one is checked by one ``eigvalsh`` call."""
        calls = helpers.record_linalg_calls(monkeypatch, "cholesky", "eigvalsh")
        dim = SCREEN_FROM_DIM
        povm = {x: dict(zip("ab", random_povm(dim, 3, rng)[:2])) for x in ("x", "y")}
        LossyDevice(dim, ["x", "y"], ["a", "b"], povm)
        assert calls == [("cholesky", (2 * 3, dim, dim))]
        calls.clear()
        povm["y"]["b"] = helpers.planted_lowest(povm["y"]["b"], -1e-6)
        message = "POVM element ('y', 'b') has negative eigenvalue -1.000e-06"
        with pytest.raises(NotPositiveError, match=re.escape(message)):
            LossyDevice(dim, ["x", "y"], ["a", "b"], povm)
        assert calls == [("cholesky", (2 * 3, dim, dim)), ("eigvalsh", (2 * 3, dim, dim))]


FAULTS = ("none", "hermiticity", "negative", "overfull", "completeness")


def _faulty_input(rng, dim, n_settings, n_outcomes, explicit_noclick, faults):
    """Random device input with ``faults``: (setting, element index, kind) each, element n being no-click."""
    outcomes = [f"a{j}" for j in range(n_outcomes)]
    settings_ = [f"x{i}" for i in range(n_settings)]
    povm = {}
    for x in settings_:
        elements = random_povm(dim, n_outcomes + 1, rng)
        labels = [*outcomes, NOCLICK] if explicit_noclick else outcomes
        povm[x] = dict(zip(labels, elements))
    for i, j, kind in faults:
        row = povm[settings_[i]]
        label = [*outcomes, NOCLICK][j]
        if label not in row or kind == "none":
            continue
        m = row[label]
        if kind == "hermiticity":
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            row[label] = m + 1e-6 * (g - g.conj().T)
        elif kind == "negative":
            w, v = np.linalg.eigh(m)
            row[label] = m - (w[0] + 1e-6) * projector(v[:, 0])
        elif kind == "overfull":
            row[label] = m + 2.0 * np.eye(dim)
        else:
            row[label] = m + 1e-6 * np.eye(dim)
    return settings_, outcomes, povm


def _outcome(call):
    try:
        call()
    except ValueError as exc:
        return type(exc), re.sub(r"-?\d\.\d+e[-+]\d+", "#", str(exc))
    return None


@settings(max_examples=100, deadline=None)
@example(seed=0, dim=3, n_settings=1, n_outcomes=2, explicit_noclick=True, faults=[(0, 2, "negative")])
@example(seed=0, dim=2, n_settings=2, n_outcomes=2, explicit_noclick=False, faults=[(1, 0, "overfull")])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
    explicit_noclick=st.booleans(),
    faults=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from(FAULTS)), max_size=3
    ),
)
def test_stacked_validation_matches_the_per_element_loop(seed, dim, n_settings, n_outcomes, explicit_noclick, faults):
    """Same inputs rejected, with the same exception type naming the same element or setting."""
    rng = np.random.default_rng(seed)
    faults = [(i % n_settings, min(j, n_outcomes), kind) for i, j, kind in faults]
    xs, outs, povm = _faulty_input(rng, dim, n_settings, n_outcomes, explicit_noclick, faults)
    expected = _outcome(lambda: helpers.legacy_validate(dim, xs, outs, povm))
    assert _outcome(lambda: LossyDevice(dim, xs, outs, povm)) == expected


def _planted_lossy(rng, dim, n_settings, n_outcomes, plants):
    """Good-element stack of a random device with each ``(setting, element, lowest)`` of ``plants`` planted.

    Element ``n_outcomes`` is the no-click one: its completion gets the planted lowest eigenvalue by
    raising the first good element along that eigenvector.
    """
    stack = np.array([random_povm(dim, n_outcomes + 1, rng)[:n_outcomes] for _ in range(n_settings)])
    for i, j, target in plants:
        if j < n_outcomes:
            stack[i, j] = helpers.planted_lowest(stack[i, j], target)
        else:
            w, v = np.linalg.eigh(np.eye(dim) - stack[i].sum(axis=0))
            stack[i, 0] += (w[0] - target) * projector(v[:, 0])
    return stack


def _planted_lossless(rng, dim, n_settings, n_outcomes, plants):
    """Good-element stack of projectors onto disjoint sets of basis vectors, with ``plants`` on their kernels."""
    stack = np.zeros((n_settings, n_outcomes, dim, dim), dtype=complex)
    for i in range(n_settings):
        basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        owner = rng.integers(0, n_outcomes + 1, size=dim)  # outcome n_outcomes: outside the support
        for j in range(n_outcomes):
            stack[i, j] = basis[:, owner == j] @ basis[:, owner == j].conj().T
        for j, target in ((j, t) for s, j, t in plants if s == i and j < n_outcomes):
            kernel = np.flatnonzero(owner != j)
            if kernel.size:
                stack[i, j] += target * projector(basis[:, kernel[0]])
    return stack


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lossless=st.booleans(),
    dim=st.sampled_from([3, 5, SCREEN_FROM_DIM, 12]),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
    plants=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from(helpers.PLANTED_LOWEST)), max_size=3
    ),
)
def test_screened_validation_raises_what_eigvalsh_raises(seed, lossless, dim, n_settings, n_outcomes, plants):
    """The same error text, number included, or none, as a validation with ``eigvalsh`` at every size."""
    import fairsamp.device

    rng = np.random.default_rng(seed)
    plants = [(i % n_settings, min(j, n_outcomes), t) for i, j, t in plants]
    cls, build = (LosslessDevice, _planted_lossless) if lossless else (LossyDevice, _planted_lossy)
    stack = build(rng, dim, n_settings, n_outcomes, plants)
    xs, outs = [f"x{i}" for i in range(n_settings)], [f"a{j}" for j in range(n_outcomes)]

    def outcome():
        try:
            cls(dim, xs, outs, stack)
        except ValueError as exc:
            return type(exc), str(exc)
        return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fairsamp.device, "psd_faults", helpers.eigvalsh_psd_faults)
        expected = outcome()
    assert outcome() == expected


#: Planted eigenvalues: those of ``helpers.PLANTED_LOWEST`` keep each outcome sum a projector within
#: COMPLETENESS_TOL; 0.5 and 1.5 break it, on the support (``1 - sum`` goes negative) or off it.
LOSSLESS_PLANTS = (*helpers.PLANTED_LOWEST, 0.5, 1.5)


@settings(max_examples=80, deadline=None)
@example(seed=1, dim=2, n_settings=2, n_outcomes=1, plants=[(1, 0, 0.5), (0, 0, helpers.PLANTED_LOWEST[0])])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3, SCREEN_FROM_DIM]),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
    plants=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(LOSSLESS_PLANTS)), max_size=3
    ),
)
def test_a_lossless_device_is_checked_as_a_lossy_device_plus_the_projector_rule(
    seed, dim, n_settings, n_outcomes, plants
):
    """What ``LossyDevice`` raises, or the projector error; with every sum a projector, what it raises or builds."""
    rng = np.random.default_rng(seed)
    plants = [(i % n_settings, j % n_outcomes, t) for i, j, t in plants]
    stack = _planted_lossless(rng, dim, n_settings, n_outcomes, plants)
    xs, outs = [f"x{i}" for i in range(n_settings)], [f"a{j}" for j in range(n_outcomes)]

    def build(cls):
        try:
            return cls(dim, xs, outs, stack)
        except ValueError as exc:
            return type(exc), str(exc)

    lossy, lossless = build(LossyDevice), build(LosslessDevice)
    sums = stack.sum(axis=1)
    if all(np.max(np.abs(m @ m - m)) <= COMPLETENESS_TOL for m in sums):
        if isinstance(lossy, tuple):
            assert lossless == lossy
        else:
            assert lossless.stack.tobytes() == lossy.stack.tobytes()
    elif lossless != lossy:
        assert isinstance(lossless, tuple) and lossless[0] is ValueError
        assert re.fullmatch(r"outcome sum for setting 'x\d' is not a projector \(residual .*\)", lossless[1])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
    faults=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(FAULTS)), max_size=2
    ),
)
def test_a_good_element_stack_builds_what_its_mapping_builds(seed, dim, n_settings, n_outcomes, faults):
    """The same elements to the bit, or the same error; the stack is copied, neither frozen nor shared."""
    rng = np.random.default_rng(seed)
    faults = [(i % n_settings, j % n_outcomes, kind) for i, j, kind in faults]
    xs, outs, povm = _faulty_input(rng, dim, n_settings, n_outcomes, False, faults)
    stack = np.array([[povm[x][a] for a in outs] for x in xs], dtype=complex)

    def build(elements):
        try:
            return LossyDevice(dim, xs, outs, elements)
        except ValueError as exc:
            return type(exc), str(exc)

    from_mapping, from_stack = build(povm), build(stack)
    if isinstance(from_mapping, tuple):
        assert from_stack == from_mapping
        return
    assert (from_stack.settings, from_stack.outcomes) == (from_mapping.settings, from_mapping.outcomes)
    assert np.array_equal(from_stack.stack, from_mapping.stack)
    assert stack.flags.writeable and not np.shares_memory(stack, from_stack.stack)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(helpers.PASS_KINDS),
    dim=st.integers(1, 4),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
)
def test_lossless_devices_are_their_own_lossy_completion(seed, kind, dim, n_settings, n_outcomes):
    """Lossless devices of random devices are lossy devices with no-click rows ``1 - support``, to the bit."""
    rng = np.random.default_rng(seed)
    dev = helpers.pass_device(kind, rng, dim, n_settings, n_outcomes)
    built = [canonical_decomposition(dev).lossless]
    verdict = check_exact(dev)
    if verdict.epsilon < 1.0:
        built.append(ideal_device_from(dev, verdict.reference))
    for lossless in built:
        assert isinstance(lossless, LossyDevice)
        assert lossless.to_lossy() is lossless
        assert np.array_equal(lossless.stack, helpers.oracle_to_lossy(lossless).stack)


class TestFaultOrder:
    """A fault in an earlier setting is named before any fault of a later one, structural or numerical."""

    NEGATIVE = np.diag([1.0, -0.2])

    @pytest.mark.parametrize("cls", [LossyDevice, LosslessDevice])
    def test_numerical_fault_before_a_later_missing_element(self, cls):
        with pytest.raises(NotPositiveError, match=r"element \('x', 'a'\)"):
            cls(2, ["x", "y"], ["a"], {"x": {"a": self.NEGATIVE}, "y": {}})

    @pytest.mark.parametrize("cls", [LossyDevice, LosslessDevice])
    def test_missing_element_before_a_later_numerical_fault(self, cls):
        with pytest.raises(ValueError, match=r"missing POVM element for \('x', 'a'\)"):
            cls(2, ["x", "y"], ["a"], {"x": {}, "y": {"a": self.NEGATIVE}})

    def test_completeness_before_a_later_negative_element(self):
        povm = {"x": {"a": 0.3 * np.eye(2), NOCLICK: 0.5 * np.eye(2)}, "y": {"a": self.NEGATIVE}}
        with pytest.raises(ValueError, match="setting 'x' violates completeness"):
            LossyDevice(2, ["x", "y"], ["a"], povm)


class TestLosslessFaultOrder:
    """A lossless setting is checked as a lossy one, then by the projector rule; settings in label order."""

    HALF = {"a": 0.25 * np.eye(2), "b": 0.25 * np.eye(2)}  # sums to 0.5 I, not a projector
    NEGATIVE = {"a": np.diag([1.0, -0.2]), "b": np.diag([0.0, 1.2])}  # sums to the identity

    def test_a_half_identity_sum_names_the_projector_rule(self):
        message = "outcome sum for setting 'x' is not a projector (residual 2.500e-01)"
        with pytest.raises(ValueError, match=re.escape(message)):
            LosslessDevice(2, ["x"], ["a"], {"x": {"a": 0.5 * np.eye(2)}})

    def test_a_sum_above_the_identity_names_its_noclick_eigenvalue(self):
        message = "POVM element ('x', noclick) has negative eigenvalue -1.000e+00"
        with pytest.raises(NotPositiveError, match=re.escape(message)):
            LosslessDevice(2, ["x"], ["a"], {"x": {"a": 2.0 * np.eye(2)}})

    def test_projector_fault_before_a_later_negative_element(self):
        with pytest.raises(ValueError, match=r"^outcome sum for setting 'x' is not a projector"):
            LosslessDevice(2, ["x", "y"], ["a", "b"], {"x": self.HALF, "y": self.NEGATIVE})

    def test_negative_element_before_a_later_projector_fault(self):
        with pytest.raises(NotPositiveError, match=r"^POVM element \('x', 'a'\) has negative eigenvalue"):
            LosslessDevice(2, ["x", "y"], ["a", "b"], {"x": self.NEGATIVE, "y": self.HALF})

    def test_a_given_noclick_element_within_tolerance_is_kept(self):
        noclick = np.diag([0.0, 1.0]) + COMPLETENESS_TOL / 2 * np.eye(2)
        povm = {"x": {"a": np.diag([1.0, 0.0]), NOCLICK: noclick}}
        lossless = LosslessDevice(2, ["x"], ["a"], povm)
        assert lossless.stack.tobytes() == LossyDevice(2, ["x"], ["a"], povm).stack.tobytes()
        assert np.array_equal(lossless.noclick_element("x"), noclick)  # not overwritten by 1 - sum

    def test_a_given_noclick_element_outside_tolerance_violates_completeness(self):
        povm = {"x": {"a": np.diag([1.0, 0.0]), NOCLICK: np.diag([0.0, 1.0]) + 1e-6 * np.eye(2)}}
        with pytest.raises(ValueError, match=re.escape("setting 'x' violates completeness by 1.000e-06")):
            LosslessDevice(2, ["x"], ["a"], povm)


@pytest.mark.filterwarnings("error")
class TestNonFiniteElements:
    """A NaN or infinite entry is a fault of its element, reported in label order; LAPACK never sees it."""

    PREFIX = "POVM element"  # both classes: a lossless device is checked as a lossy one

    @staticmethod
    def element(dim, value, at):
        m = np.eye(dim, dtype=complex) / 2.0
        m[at] = value
        return m

    @pytest.fixture
    def finite_lapack(self, monkeypatch):
        """Fail any ``eigvalsh`` or ``cholesky`` call given a non-finite entry."""
        for name in ("eigvalsh", "cholesky"):
            original = getattr(np.linalg, name)

            def checked(a, *args, _original=original, **kw):
                assert np.isfinite(a).all(), "LAPACK was given a non-finite entry"
                return _original(a, *args, **kw)

            monkeypatch.setattr(np.linalg, name, checked)

    @pytest.mark.parametrize("cls", [LossyDevice, LosslessDevice])
    @pytest.mark.parametrize("dim", [2, SCREEN_FROM_DIM + 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1j * np.inf, complex(np.nan, 1.0)])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_names_the_element(self, finite_lapack, cls, dim, value, at):
        with pytest.raises(ValueError) as raised:
            cls(dim, ["x"], ["a"], {"x": {"a": self.element(dim, value, at)}})
        assert str(raised.value) == f"{self.PREFIX} ('x', 'a') has a non-finite entry"

    @pytest.mark.parametrize("dim", [2, SCREEN_FROM_DIM + 1])
    def test_given_noclick_element(self, finite_lapack, dim):
        povm = {"x": {"a": np.eye(dim) / 2.0, NOCLICK: self.element(dim, np.nan, (1, 1))}}
        with pytest.raises(ValueError, match=r"^POVM element \('x', noclick\) has a non-finite entry$"):
            LossyDevice(dim, ["x"], ["a"], povm)

    @pytest.mark.parametrize("cls", [LossyDevice, LosslessDevice])
    @pytest.mark.parametrize("dim", [2, SCREEN_FROM_DIM + 1])
    def test_label_order_with_positivity_faults(self, finite_lapack, cls, dim):
        negative = np.diag([1.0] + [-0.2] * (dim - 1))
        nan = self.element(dim, np.nan, (0, 0))
        with pytest.raises(NotPositiveError, match=r"element \('x', 'a'\)"):
            cls(dim, ["x", "y"], ["a"], {"x": {"a": negative}, "y": {"a": nan}})
        with pytest.raises(ValueError, match=r"element \('x', 'a'\) has a non-finite entry$"):
            cls(dim, ["x", "y"], ["a"], {"x": {"a": nan}, "y": {"a": negative}})

    @pytest.mark.parametrize("dim", [2, SCREEN_FROM_DIM + 1])
    def test_a_stack_is_checked_too(self, finite_lapack, dim):
        stack = np.array([[np.eye(dim) / 2.0], [self.element(dim, np.inf, (1, 1))]])
        with pytest.raises(ValueError, match=r"^POVM element \('y', 'a'\) has a non-finite entry$"):
            LossyDevice(dim, ["x", "y"], ["a"], stack)


class TestClickElement:
    def test_lossless_projective(self, lossless_z):
        np.testing.assert_allclose(lossless_z.click_element("z"), np.eye(2), atol=1e-12)

    def test_traced_quarter_identity(self, traced):
        for x in traced.settings:
            np.testing.assert_allclose(traced.click_element(x), np.eye(2) / 4.0, atol=1e-12)

    def test_single_photon_analyser(self):
        eta, delta, theta = 0.8, 0.05, np.pi / 5.0
        dev = single_photon_analyser(eta, delta, [theta])
        along = np.array([np.cos(theta), np.sin(theta)])
        expected = eta * np.eye(2) - (1.0 - eta) * delta * projector(along)
        np.testing.assert_allclose(dev.click_element(dev.settings[0]), expected, atol=1e-12)

    def test_unknown_setting(self, traced):
        with pytest.raises(KeyError):
            traced.click_element("weird")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    n_settings=st.integers(1, 4),
    n_outcomes=st.integers(1, 4),
)
def test_click_elements_are_summed_once_left_to_right_and_read_only(seed, dim, n_settings, n_outcomes):
    dev = helpers.random_multisetting_device(np.random.default_rng(seed), dim, n_settings, n_outcomes)
    clicks = dev.click_elements()
    for i, x in enumerate(dev.settings):
        expected = sum(dev.stack[i, :n_outcomes]).tobytes()
        assert clicks[i].tobytes() == dev.click_element(x).tobytes() == expected
    assert dev.click_elements() is clicks and dev.click_norms is dev.click_norms
    assert dev.click_norms.tobytes() == operator_norms(clicks).tobytes()
    for array in (clicks, dev.click_element(dev.settings[-1]), dev.click_norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
    dead=st.booleans(),
)
def test_lossless_click_elements_are_the_support_projectors(seed, dim, n_settings, n_outcomes, dead):
    """A lossless device's click stack is summed as any device's, and ``common_support`` reads it as the loop did.

    A dead setting gives the canonical lossless device a zero support, so the supports differ.
    """
    rng = np.random.default_rng(seed)
    dev = helpers.random_multisetting_device(rng, dim, n_settings, n_outcomes)
    fair = helpers.perturbed_fair_device(rng, dim, n_settings, n_outcomes)
    if dead:
        dev, fair = helpers.with_dead_setting(dev), helpers.with_dead_setting(fair)
    for lossless in (canonical_decomposition(dev).lossless, ideal_device_from(fair, check_exact(fair).reference)):
        clicks = lossless.click_elements()
        for i in range(len(lossless.settings)):
            assert clicks[i].tobytes() == sum(lossless.stack[i, :n_outcomes]).tobytes()
        expected, common = helpers.oracle_common_support(lossless), lossless.common_support()
        assert (common is None) == (expected is None)
        assert common is None or common.tobytes() == expected.tobytes()


def test_live_holds_the_settings_that_click_once_and_read_only():
    dev = helpers.silent_device()
    assert dev.live.tolist() == [0] and dev.live is dev.live
    with pytest.raises(ValueError, match="read-only"):
        dev.live[0] = 1


RHO = np.eye(2) / 2.0


@pytest.mark.parametrize(
    "method, args, message",
    [
        ("element", ("z", "+"), "unknown setting 'z'"),
        ("element", ("0", "q"), "unknown outcome 'q'"),
        ("click_element", ("z",), "unknown setting 'z'"),
        ("noclick_element", ("z",), "unknown setting 'z'"),
        ("efficiency", ("z", RHO), "unknown setting 'z'"),
        ("outcome_distribution", ("z", RHO), "unknown setting 'z'"),
        ("postselected_distribution", ("z", RHO), "unknown setting 'z'"),
    ],
    ids=["element-setting", "element-outcome", "click", "noclick", "efficiency", "raw", "postselected"],
)
def test_unknown_labels_raise_a_key_error_naming_them(method, args, message):
    dev = projective_qubit_device({"0": 0.0}, 0.5)
    with pytest.raises(KeyError) as raised:
        getattr(dev, method)(*args)
    assert raised.value.args == (message,)


class TestEfficiency:
    def test_lossless_is_one(self, lossless_z, rng):
        for _ in range(5):
            assert lossless_z.efficiency("z", random_density(2, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_traced_is_quarter(self, traced, rng):
        for _ in range(5):
            rho = random_density(2, rng)
            for x in traced.settings:
                assert traced.efficiency(x, rho) == pytest.approx(0.25, abs=1e-12)

    def test_flat_analyser(self, rng):
        dev = single_photon_analyser(0.8, 0.0, [0.0, 1.0])
        for x in dev.settings:
            assert dev.efficiency(x, random_density(2, rng)) == pytest.approx(0.8, abs=1e-12)

    def test_affine_in_state(self, traced, rng):
        r1, r2 = random_density(2, rng), random_density(2, rng)
        p = 0.3
        mix = p * r1 + (1.0 - p) * r2
        for x in traced.settings:
            direct = traced.efficiency(x, mix)
            combo = p * traced.efficiency(x, r1) + (1.0 - p) * traced.efficiency(x, r2)
            assert direct == pytest.approx(combo, abs=1e-10)

    def test_click_mass_above_one_is_not_capped(self):
        # Each good element is (1 + 5e-11) times a projector: the no-click element, -5e-11 times
        # the identity, passes the PSD check, and so does a click mass 5e-11 above 1.
        scale = 1.0 + 5e-11
        dev = LossyDevice(2, ["x"], ["a", "b"], scale * np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]]))
        rho = np.eye(2) / 2.0
        assert dev.outcome_distribution("x", rho)[NOCLICK] == 0.0
        acceptance = dev.efficiency("x", rho)
        assert acceptance == pytest.approx(scale, abs=1e-15) and acceptance > 1.0
        ps = dev.postselected_distribution("x", rho)
        assert ps == {a: p / acceptance for a, p in dev.outcome_distribution("x", rho).items() if a != NOCLICK}


class TestDistributions:
    def test_lossless_z_on_zero(self, lossless_z):
        dist = lossless_z.outcome_distribution("z", np.diag([1.0, 0.0]))
        assert dist == pytest.approx({"+": 1.0, "-": 0.0, NOCLICK: 0.0}, abs=1e-12)

    def test_traced_on_zero(self, traced):
        dist = traced.outcome_distribution("0", np.diag([1.0, 0.0]))
        assert dist == pytest.approx({"+": 0.25, "-": 0.0, NOCLICK: 0.75}, abs=1e-12)

    def test_traced_x_basis_on_mixed(self, traced):
        dist = traced.outcome_distribution("1", np.eye(2) / 2.0)
        assert dist == pytest.approx({"+": 0.125, "-": 0.125, NOCLICK: 0.75}, abs=1e-12)

    def test_postselected_renormalizes(self, traced):
        assert traced.postselected_distribution("0", np.diag([1.0, 0.0])) == pytest.approx(
            {"+": 1.0, "-": 0.0}, abs=1e-12
        )
        assert traced.postselected_distribution("1", np.eye(2) / 2.0) == pytest.approx(
            {"+": 0.5, "-": 0.5}, abs=1e-12
        )

    def test_postselected_equals_conditioned(self, traced, rng):
        for _ in range(10):
            rho = random_density(2, rng)
            for x in traced.settings:
                raw = traced.outcome_distribution(x, rho)
                acc = sum(raw[a] for a in traced.outcomes)
                ps = traced.postselected_distribution(x, rho)
                for a in traced.outcomes:
                    assert ps[a] == pytest.approx(raw[a] / acc, abs=1e-12)

    def test_lossless_postselection_is_identity(self, lossless_z, rng):
        rho = random_density(2, rng)
        raw = lossless_z.outcome_distribution("z", rho)
        ps = lossless_z.postselected_distribution("z", rho)
        for a in lossless_z.outcomes:
            assert ps[a] == pytest.approx(raw[a], abs=1e-12)

    def test_zero_acceptance_erasure(self):
        dev = LossyDevice(2, ["x"], ["a"], {"x": {"a": np.zeros((2, 2))}})
        with pytest.raises(ZeroAcceptanceError, match="erase"):
            dev.postselected_distribution("x", np.eye(2) / 2.0)

    def test_negative_probability_beyond_tolerance_raises(self):
        # Element and state each pass the PSD check, yet their negative
        # eigenvalues add up to a probability below -COMPLETENESS_TOL.
        dim = 20
        rho = np.diag([1.0 + (dim - 1) * 0.9e-10] + [-0.9e-10] * (dim - 1))
        low = np.diag([0.0] + [1.0] * (dim - 1))
        dev = LossyDevice(dim, ["x"], ["a", "b"], {"x": {"a": low, "b": np.eye(dim) - low}})
        with pytest.raises(NotPositiveError, match="outcome 'a' at setting 'x'"):
            dev.outcome_distribution("x", rho)

    def test_negative_probability_names_the_first_negative_outcome(self):
        # As above, with the negative reading on the second outcome: the one contraction
        # of all outcomes raises what one probability per outcome raises.
        dim = 20
        rho = np.diag([1.0 + (dim - 1) * 0.9e-10] + [-0.9e-10] * (dim - 1))
        low = np.diag([0.0] + [1.0] * (dim - 1))
        dev = LossyDevice(dim, ["x"], ["a", "b"], {"x": {"a": np.eye(dim) - low, "b": low}})
        with pytest.raises(NotPositiveError, match="outcome 'b' at setting 'x'") as stacked:
            dev.outcome_distribution("x", rho)
        with pytest.raises(NotPositiveError) as per_outcome:
            helpers.oracle_outcome_distribution(dev, "x", rho)
        assert str(stacked.value) == str(per_outcome.value)


class TestLosslessDevice:
    def test_sum_must_be_projector(self):
        with pytest.raises(ValueError, match="projector"):
            LosslessDevice(2, ["x"], ["a"], {"x": {"a": 0.5 * np.eye(2)}})

    @pytest.mark.parametrize(
        "povm,message",
        [
            ({}, r"missing POVM entries for setting 'x'"),
            ({"x": {}}, r"missing POVM element for \('x', 'a'\)"),
            ({"x": {"a": np.eye(3)}}, r"element \('x', 'a'\) has dimension 3, expected 2"),
        ],
        ids=["setting", "element", "dimension"],
    )
    def test_structure_errors_name_setting_and_outcome(self, povm, message):
        with pytest.raises(ValueError, match=message):
            LosslessDevice(2, ["x"], ["a"], povm)

    @pytest.mark.parametrize(
        "settings,outcomes,message",
        [
            (["x", "x"], ["a"], "duplicate setting"),
            (["x"], ["a", "a"], "duplicate outcome"),
            (["x"], ["noclick"], "reserved"),
        ],
        ids=["settings", "outcomes", "noclick"],
    )
    def test_labels_checked_as_for_lossy_devices(self, settings, outcomes, message):
        with pytest.raises(ValueError, match=message):
            LosslessDevice(2, settings, outcomes, {"x": {a: np.eye(2) for a in outcomes}})

    def test_to_lossy_checks_the_noclick_element(self):
        # The outcome sum passes the projector test (residual 5e-10), but 1 - sum does not pass the PSD test.
        good = np.diag([1 + 5e-10, 0.0])
        message = "POVM element ('x', noclick) has negative eigenvalue -5.000e-10"
        with pytest.raises(NotPositiveError, match=re.escape(message)):
            LosslessDevice(2, ["x"], ["a"], {"x": {"a": good}})
        with pytest.raises(NotPositiveError, match=re.escape(message)):
            LossyDevice(2, ["x"], ["a"], {"x": {"a": good, NOCLICK: np.eye(2) - good}})

    def test_takes_an_element_stack(self):
        povm = {"x": {"a": np.diag([1.0, 0.0]), "b": np.diag([0.0, 1.0])}}
        stack = np.array([[povm["x"]["a"], povm["x"]["b"]]])
        from_stack = LosslessDevice(2, ["x"], ["a", "b"], stack)
        assert np.array_equal(from_stack.stack, LosslessDevice(2, ["x"], ["a", "b"], povm).stack)
        assert stack.flags.writeable and not np.shares_memory(stack, from_stack.stack)
        with pytest.raises(ValueError, match=re.escape("element stack has shape (1, 1, 2, 2), expected (1, 2, 2, 2)")):
            LosslessDevice(2, ["x"], ["a", "b"], stack[:, :1])

    def test_to_lossy_completes(self):
        dev = LosslessDevice(2, ["x"], ["a"], {"x": {"a": np.diag([1.0, 0.0])}})
        lossy = dev.to_lossy()
        np.testing.assert_allclose(lossy.noclick_element("x"), np.diag([0.0, 1.0]), atol=1e-12)

    def test_common_support(self):
        povm = {"x": {"a": np.diag([1.0, 0.0])}, "y": {"a": np.diag([1.0, 0.0])}}
        dev = LosslessDevice(2, ["x", "y"], ["a"], povm)
        np.testing.assert_allclose(dev.common_support(), np.diag([1.0, 0.0]), atol=1e-12)
        povm2 = {"x": {"a": np.diag([1.0, 0.0])}, "y": {"a": np.diag([0.0, 1.0])}}
        assert LosslessDevice(2, ["x", "y"], ["a"], povm2).common_support() is None


def test_total_variation():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert total_variation({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)
    assert total_variation({"a": 0.7, "b": 0.3}, {"a": 0.4, "b": 0.6}) == pytest.approx(0.3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(helpers.PASS_KINDS),
    dim=st.integers(1, 5),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
)
def test_outcome_distribution_equals_one_probability_per_outcome(seed, kind, dim, n_settings, n_outcomes):
    """One contraction of a setting's elements reads the bits of one ``expect`` per outcome."""
    rng = np.random.default_rng(seed)
    dev = helpers.pass_device(kind, rng, dim, n_settings, n_outcomes)
    rho = random_density(dim, rng)
    for x in dev.settings:
        stacked = dev.outcome_distribution(x, rho)
        assert list(stacked.items()) == list(helpers.oracle_outcome_distribution(dev, x, rho).items())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(helpers.PASS_KINDS),
    dim=st.integers(1, 5),
    n_settings=st.integers(1, 3),
    n_outcomes=st.integers(1, 3),
)
def test_one_party_tables_and_efficiency_read_outcome_distribution(seed, kind, dim, n_settings, n_outcomes):
    """A one-party ``BellScenario``'s tables and ``efficiency`` agree with ``outcome_distribution``.

    ``efficiency`` is the acceptance that ``postselected_distribution`` divides by, and an erased
    setting, whose acceptance is at most ZERO_ACCEPTANCE, has no post-selected distribution.
    """
    rng = np.random.default_rng(seed)
    dev = helpers.pass_device(kind, rng, dim, n_settings, n_outcomes)
    rho = random_density(dim, rng)
    tables = BellScenario([dev], rho).tables()
    for x in dev.settings:
        raw = dev.outcome_distribution(x, rho)
        np.testing.assert_allclose(tables.raw[(x,)], list(raw.values()), rtol=0, atol=1e-12)
        acceptance = dev.efficiency(x, rho)
        assert acceptance == pytest.approx(tables.acceptance[(x,)], abs=1e-12)
        if acceptance <= ZERO_ACCEPTANCE:
            with pytest.raises(ZeroAcceptanceError):
                dev.postselected_distribution(x, rho)
        else:
            ps = dev.postselected_distribution(x, rho)
            assert ps == {a: raw[a] / acceptance for a in dev.outcomes}
