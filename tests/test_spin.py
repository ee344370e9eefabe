import cmath
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualaction import (
    PreconditionError,
    SpinPathEnsemble,
    composite_spin_propagator,
    spin_half_propagator,
)
from dualaction.spin import (
    COMPOSITE_ENUM_CAP,
    POLICIES,
    SPIN_HALF_ENUM_CAP,
    _path_sum,
    _square_sums,
    _validated,
    composite_closed_form,
    composite_values,
    spin_half_closed_form,
    spin_half_values,
)
from dualaction.cli import main


class TestEnsemble:
    def test_spin_half_path_count(self):
        assert SpinPathEnsemble(5, ((1.0, 1), (-1.0, 1))).path_count == 32

    def test_composite_path_count(self):
        assert SpinPathEnsemble(3, composite_values(0.5)).path_count == 64

    def test_multiplicity_audit(self):
        values = dict(composite_values(0.5))
        assert values[1.0] == 1 and values[0.0] == 2 and values[-1.0] == 1
        assert SpinPathEnsemble(1, composite_values(0.5)).path_count == 4

    def test_validation(self):
        with pytest.raises(PreconditionError):
            SpinPathEnsemble(0, ((1.0, 1),))
        with pytest.raises(PreconditionError):
            SpinPathEnsemble(2, ((1.0, 1),), policy="sideways")


class TestSpinHalf:
    def test_unconstrained_pure_phase(self):
        g = spin_half_propagator(1.0, 1.0, "+", "+", 1.0, 4)
        assert abs(g - cmath.exp(-0.5j)) <= 1e-12
        assert abs(abs(g) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    @pytest.mark.parametrize("t", [0.3, 2.7])
    def test_unit_magnitude_all_n_t(self, n, t):
        g = spin_half_propagator(2.0, 1.5, "+", "-", t, n)
        assert abs(abs(g) - 1.0) <= 1e-12

    def test_endpoint_filtered_quarter_weight(self):
        g = spin_half_propagator(1.0, 1.0, "+", "+", 1.0, 4, policy="endpoint-filtered")
        assert abs(g - 0.25 * cmath.exp(-0.5j)) <= 1e-12

    def test_endpoint_filtered_counts(self):
        # 2^(N-2) admitted paths for N >= 2 with both endpoints fixed
        for n in range(2, 9):
            g = spin_half_propagator(1.0, 1.0, "+", "-", 0.0, n, policy="endpoint-filtered")
            assert abs(g - 2.0 ** (n - 2) / 2.0**n) <= 1e-12

    def test_single_interval_filtered(self):
        match = spin_half_propagator(1.0, 1.0, "+", "+", 0.7, 1, policy="endpoint-filtered")
        clash = spin_half_propagator(1.0, 1.0, "+", "-", 0.7, 1, policy="endpoint-filtered")
        assert abs(match - 0.5 * cmath.exp(-0.35j)) <= 1e-12
        assert clash == 0.0

    def test_zero_time(self):
        assert spin_half_propagator(1.0, 1.0, "+", "-", 0.0, 6) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    @pytest.mark.parametrize("policy", ["paper-unconstrained", "endpoint-filtered"])
    def test_enumeration_matches_closed_form(self, n, policy):
        args = (1.3, 0.7, "+", "-", 0.9, n)
        a = spin_half_propagator(*args, policy=policy)
        b = spin_half_closed_form(*args, policy=policy)
        assert abs(a - b) <= 1e-12

    def test_cap_error_and_closed_form_escape(self):
        with pytest.raises(PreconditionError):
            spin_half_propagator(1.0, 1.0, "+", "+", 1.0, SPIN_HALF_ENUM_CAP + 1)
        g = spin_half_propagator(1.0, 1.0, "+", "+", 1.0, SPIN_HALF_ENUM_CAP + 1,
                                 use_closed_form=True)
        assert abs(abs(g) - 1.0) <= 1e-12

    def test_filtered_zero_l_is_a_precondition_error(self):
        # at l = 0 both sign levels are 0, so no end sign is defined
        for n, closed in ((3, False), (SPIN_HALF_ENUM_CAP + 1, True)):
            with pytest.raises(PreconditionError):
                spin_half_propagator(1.0, 0.0, "+", "-", 1.0, n, policy="endpoint-filtered",
                                     use_closed_form=closed)
        with pytest.raises(PreconditionError):
            spin_half_closed_form(1.0, 0.0, "+", "-", 1.0, 3, policy="endpoint-filtered")
        assert spin_half_propagator(1.0, 0.0, "+", "-", 1.0, 3) == 1.0

    def test_sign_parsing(self):
        with pytest.raises(PreconditionError):
            spin_half_propagator(1.0, 1.0, "up", "+", 1.0, 2)
        with pytest.raises(PreconditionError):
            spin_half_propagator(-1.0, 1.0, "+", "+", 1.0, 2)


class TestComposite:
    def test_single_interval_hand_sum(self):
        # l0 = 1/2: values {+1: 1, 0: 2, -1: 1}; phases exp(-i/2), 1, 1, exp(-i/2)
        g = composite_spin_propagator(1.0, 0.5, 1.0, 1.0, 1.0, 1)
        expected = 0.5 * (1.0 + cmath.exp(-0.5j))
        assert abs(g - expected) <= 1e-12

    def test_two_intervals_product_structure(self):
        g2 = composite_spin_propagator(1.0, 0.5, 1.0, 1.0, 1.0, 2)
        g1_half = composite_spin_propagator(1.0, 0.5, 1.0, 1.0, 0.5, 1)
        assert abs(g2 - g1_half**2) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    @pytest.mark.parametrize("policy", ["paper-unconstrained", "endpoint-filtered"])
    def test_enumeration_matches_closed_form(self, n, policy):
        args = (0.8, 0.5, 1.0, 0.0, 1.1, n)
        a = composite_spin_propagator(*args, policy=policy)
        b = composite_closed_form(*args, policy=policy)
        assert abs(a - b) <= 1e-12

    def test_endpoint_filtered_multiplicity_weighting(self):
        # N=1, l_i = l_f = 0 admits the two zero-sum sign pairs
        g = composite_spin_propagator(1.0, 0.5, 0.0, 0.0, 1.0, 1, policy="endpoint-filtered")
        assert abs(g - 0.5) <= 1e-12

    @pytest.mark.parametrize("l0, l_i, l_f", [
        (0.5, 0.3, 0.3),    # neither end is a value +-2 l0, 0
        (0.5, 1.0, 0.5),
        (0.5, 2.0, 0.0),
        (0.0, 0.0, 0.0),    # l0 = 0: every interval value is 0
    ])
    def test_filtered_undefined_end_is_a_precondition_error(self, l0, l_i, l_f):
        args = (1.0, l0, l_i, l_f, 3.0)
        for n, closed in ((3, False), (COMPOSITE_ENUM_CAP + 1, True)):
            with pytest.raises(PreconditionError):
                composite_spin_propagator(*args, n, policy="endpoint-filtered",
                                          use_closed_form=closed)
        with pytest.raises(PreconditionError):
            composite_closed_form(*args, 3, policy="endpoint-filtered")
        # the unconstrained sum ignores the ends
        on_level = composite_spin_propagator(1.0, l0, 0.0, 0.0, 3.0, 3)
        assert composite_spin_propagator(*args, 3) == on_level

    def test_cap_error_and_closed_form_escape(self):
        with pytest.raises(PreconditionError):
            composite_spin_propagator(1.0, 0.5, 1.0, 1.0, 1.0, COMPOSITE_ENUM_CAP + 1)
        g = composite_spin_propagator(1.0, 0.5, 1.0, 1.0, 1.0, COMPOSITE_ENUM_CAP + 1,
                                      use_closed_form=True)
        assert np.isfinite(g.real) and np.isfinite(g.imag)


@pytest.mark.parametrize("propagator, closed_form, middle", [
    (spin_half_propagator, spin_half_closed_form, (1.0, "+", "-")),
    (composite_spin_propagator, composite_closed_form, (0.5, 1.0, 0.0)),
])
@pytest.mark.parametrize("inertia, n, policy", [
    (1.0, 3, "sideways"), (0.0, 3, "paper-unconstrained"), (-1.0, 3, "paper-unconstrained"),
    (1.0, 0, "paper-unconstrained"), (1.0, -1, "paper-unconstrained"),
])
def test_closed_form_validates_like_the_propagator(propagator, closed_form, middle,
                                                   inertia, n, policy):
    # the closed forms reject every call the propagators reject, with the same error
    args = (inertia, *middle, 1.0, n, policy)
    with pytest.raises(PreconditionError) as enumerated:
        propagator(*args)
    with pytest.raises(PreconditionError) as closed:
        closed_form(*args)
    assert str(closed.value) == str(enumerated.value)


_POLICIES = st.sampled_from(["paper-unconstrained", "endpoint-filtered"])
_NONZERO = st.floats(0.1, 2.5).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=60)
@given(inertia=st.floats(0.2, 5.0), l=_NONZERO, t=st.floats(-5.0, 5.0),
       n=st.integers(1, 12), policy=_POLICIES)
def test_spin_half_enumeration_equals_closed_form(inertia, l, t, n, policy):
    for sign_i in "+-":
        for sign_f in "+-":
            args = (inertia, l, sign_i, sign_f, t, n, policy)
            assert abs(spin_half_propagator(*args) - spin_half_closed_form(*args)) <= 1e-12


@settings(max_examples=60)
@given(inertia=st.floats(0.2, 5.0), l0=_NONZERO, t=st.floats(-5.0, 5.0),
       n=st.integers(1, 6), policy=_POLICIES)
def test_composite_enumeration_equals_closed_form(inertia, l0, t, n, policy):
    # 0.5 l0 is no interval value: filtering rejects it, the unconstrained sum ignores it
    off_level = 0.5 * l0
    ends = (2.0 * l0, 0.0, -2.0 * l0, off_level)
    for l_i in ends:
        for l_f in ends:
            args = (inertia, l0, l_i, l_f, t, n, policy)
            if policy == "endpoint-filtered" and off_level in (l_i, l_f):
                for propagator in (composite_spin_propagator, composite_closed_form):
                    with pytest.raises(PreconditionError):
                        propagator(*args)
                continue
            assert abs(composite_spin_propagator(*args) - composite_closed_form(*args)) <= 1e-12


def _product_over_full_count(values, ends, t, inertia, n):
    """The filtered closed form as weight * full^(N-2) / M^N, which overflows past N ~ 500."""
    mult = dict(values)
    count = float(sum(mult.values()))
    phase = {v: cmath.exp(-1j * v**2 * (t / n) / (2.0 * inertia)) for v in mult}
    full = sum(m * phase[v] for v, m in mult.items())
    weight = mult[ends[0]] * phase[ends[0]] * mult[ends[1]] * phase[ends[1]]
    return weight * full ** (n - 2) / count**n


@pytest.mark.parametrize("n", [2, 3, 25, 200, 400])
@pytest.mark.parametrize("spin, ends", [
    ("half", (0.7, -0.7)), ("half", (-0.7, -0.7)),
    ("composite", (1.4, 0.0)), ("composite", (0.0, 0.0)), ("composite", (-1.4, 1.4)),
])
def test_filtered_closed_form_agrees_with_the_unnormalized_product(n, spin, ends):
    if spin == "half":
        values = spin_half_values(0.7)
        signs = ["+" if v > 0 else "-" for v in ends]
        got = spin_half_closed_form(1.3, 0.7, *signs, 2.1, n, policy="endpoint-filtered")
    else:
        values = composite_values(0.7)
        got = composite_closed_form(1.3, 0.7, *ends, 2.1, n, policy="endpoint-filtered")
    want = _product_over_full_count(values, ends, 2.1, 1.3, n)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("argv", [
    "spin --spin composite --N 600 --use-closed-form --policy endpoint-filtered",
    "spin --N 2000 --use-closed-form --policy endpoint-filtered",
])
def test_filtered_closed_form_past_float_range_reports(argv, capsys):
    # 4^600 and 2^2000 overflow a float; the per-interval normalization does not
    assert main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    amplitude = complex(report["results"]["re"], report["results"]["im"])
    assert report["status"] == "ok" and cmath.isfinite(amplitude) and abs(amplitude) > 0.0


def _every_path(values, t, inertia, n):
    """(first value, last value, phase) of every path, by enumerating all M^N of
    them: the filtered enumeration walks only the interior and must agree."""
    levels = np.array([v for v, mult in reversed(values) for _ in range(mult)])
    base = levels.size
    codes = np.arange(base**n)
    square_sum = np.zeros(codes.size)
    for j in range(n):
        square_sum += levels[codes // base**j % base] ** 2
    phases = np.exp(-1j * square_sum * (t / n) / (2.0 * inertia))
    return levels[codes % base], levels[codes // base ** (n - 1) % base], phases


@pytest.mark.parametrize("spin, n", [("half", n) for n in (1, 2, 3, 10, 20)]
                         + [("composite", n) for n in (1, 2, 3, 8, 10)])
def test_filtered_enumeration_equals_the_full_enumeration(spin, n):
    inertia, level, t = 1.3, 0.7, 2.1
    values = spin_half_values(level) if spin == "half" else composite_values(level)
    first, last, phases = _every_path(values, t, inertia, n)
    for ends in [(a, b) for a, _ in values for b, _ in values]:
        if spin == "half":
            signs = ["+" if v > 0 else "-" for v in ends]
            got = spin_half_propagator(inertia, level, *signs, t, n, policy="endpoint-filtered")
        else:
            got = composite_spin_propagator(inertia, level, *ends, t, n,
                                            policy="endpoint-filtered")
        want = np.sum(phases[(first == ends[0]) & (last == ends[1])]) / phases.size
        assert abs(got - want) <= 1e-13 * abs(want)


def _every_square_sum(ensemble, ends):
    """The square sum of every admitted path, by enumerating all M^N paths:
    with ends, the first and last squares and then each interior square
    left to right, all squared by products."""
    levels = np.array([v for v, mult in ensemble.values for _ in range(mult)])
    n, base = ensemble.n_intervals, levels.size
    codes = np.arange(base**n)
    if ends is None:
        square_sum, interior = np.zeros(codes.size), range(n)
    else:
        first, last = levels[codes % base], levels[codes // base ** (n - 1) % base]
        keep = (first == ends[0]) & (last == ends[1])
        codes, first, last = codes[keep], first[keep], last[keep]
        square_sum = first * first if n == 1 else first * first + last * last
        interior = range(1, n - 1)
    for j in interior:
        level = levels[codes // base**j % base]
        square_sum += level * level
    return square_sum


@settings(max_examples=60)
@given(spin=st.sampled_from(["half", "composite"]), n=st.integers(1, SPIN_HALF_ENUM_CAP),
       policy=st.sampled_from(POLICIES), level=_NONZERO, t=st.floats(-5.0, 5.0),
       inertia=st.floats(0.2, 5.0), end_digits=st.tuples(st.integers(0, 3), st.integers(0, 3)))
# the benchmark's sizes: one distinct square sum, and 11
@example(spin="half", n=20, policy="endpoint-filtered", level=1.1, t=1.7, inertia=0.8,
         end_digits=(0, 1))
@example(spin="composite", n=10, policy="paper-unconstrained", level=0.4, t=1.2, inertia=1.5,
         end_digits=(0, 0))
# a level whose square rounds
@example(spin="composite", n=10, policy="endpoint-filtered", level=0.1, t=2.3, inertia=0.7,
         end_digits=(1, 3))
@example(spin="half", n=17, policy="paper-unconstrained", level=0.1, t=-4.1, inertia=0.3,
         end_digits=(0, 0))
# a level whose ** is one ulp off its product on some libms
@example(spin="half", n=1, policy="endpoint-filtered", level=2.2435942878098967, t=1.0,
         inertia=1.0, end_digits=(0, 0))
def test_grouped_enumeration_equals_the_path_order_sum(spin, n, policy, level, t, inertia,
                                                       end_digits):
    # the walk groups the paths by their left-to-right square sums exactly, and
    # one phase per sum times its count is the path-order sum up to rounding
    if spin == "half":
        values = spin_half_values(level)
    else:
        values, n = composite_values(level), 1 + (n - 1) % COMPOSITE_ENUM_CAP
    ends = tuple(values[d % len(values)][0] for d in end_digits)
    ensemble, admitted = _validated(inertia, values, ends, n, policy)
    square_sum = _every_square_sum(ensemble, admitted)
    assert _square_sums(ensemble, admitted) == Counter(square_sum.tolist())
    # each phase argument in real arithmetic, as the library takes it
    phases = np.exp(1j * (-square_sum * (t / n) / (2.0 * inertia)))
    want = np.sum(phases) / ensemble.path_count
    got = _path_sum(ensemble, admitted, t, inertia)
    assert abs(got - want) <= 4 * np.finfo(float).eps  # |phase| = 1, |want| <= 1
