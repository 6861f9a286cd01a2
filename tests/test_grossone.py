import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleopt import optimizer as opt
from scaleopt.errors import (
    AllCandidatesDegenerateError,
    CollapseError,
    ObjectiveEvaluationError,
    UnsupportedDivisionError,
    UnsupportedScaleError,
)
from scaleopt.gp import CorrelationKernel, SurrogatePosterior
from scaleopt.grossone import (
    GROSSONE as G,
    ExtendedNumeral,
    as_numeral,
    parse_numeral,
    scaled_criterion_run,
)
from scaleopt.objectives import gramacy_lee, sin3x2
from test_optimizer import overflowing


def N(**terms):
    return ExtendedNumeral({int(k[1:].replace("m", "-")): v
                            for k, v in terms.items()})


numerals = st.builds(
    ExtendedNumeral,
    st.dictionaries(st.integers(-4, 4),
                    st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-6),
                    max_size=5))


class TestArithmetic:
    def test_gradewise_addition(self):
        left = 3 * G + 2
        right = G - 5
        assert left + right == 4 * G - 3

    def test_grade_cancellation(self):
        assert G * G.div_monomial(G * G) == ExtendedNumeral.from_real(1.0)
        assert (G * (1 / G if False else G.div_monomial(G * G))).is_finite

    def test_distributivity_example(self):
        x = 2 * G * G + G
        y = 3 * G.div_monomial(G * G)  # 3*G^-1
        assert x * y == 6 * G + 3

    def test_subtraction_to_zero(self):
        assert ((3 * G + 2) - (3 * G + 2)).is_zero

    def test_reflected_subtraction(self):
        assert 1 - G == N(g0=1.0, g1=-1.0)
        assert 2.5 - (G + 2.5) == -G

    def test_near_cancellation_keeps_residue(self):
        # 1 - 1e-16 rounds to 1 - 2**-53, so the sum is exactly 2**-53
        out = G + ExtendedNumeral({1: -(1.0 - 1e-16)})
        assert out.terms == {1: 2.0 ** -53}

    @given(x=numerals, y=numerals, z=numerals)
    @settings(max_examples=100, deadline=None)
    # (x*y)*z cancels to a grade-0 coefficient of 6.1e3 from terms whose
    # magnitudes sum to 3.7e8, which float coefficients could not keep.
    @example(x=ExtendedNumeral({4: -89.0, 0: -0.85, -2: -639.0}),
             y=ExtendedNumeral({3: -420.875, 4: 481.75, -3: 69.0}),
             z=ExtendedNumeral({1: 1.0, 0: 1.0, -1: -696.5, -2: -595.0,
                                -3: -332.0}))
    def test_ring_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


class TestDivision:
    def test_monomial_division(self):
        assert (4 * G * G + 2 * G).div_monomial(2 * G) == 2 * G + 1

    def test_identity(self):
        x = 3 * G + 2
        assert x.div_monomial(ExtendedNumeral.from_real(1.0)) == x

    def test_finite_over_infinite_is_infinitesimal(self):
        out = ExtendedNumeral.from_real(5.0).div_monomial(G)
        assert out == ExtendedNumeral({-1: 5.0})

    def test_polynomial_divisor_rejected(self):
        with pytest.raises(UnsupportedDivisionError):
            (G + 1).div_monomial(G + 1)

    def test_zero_divisor_rejected(self):
        with pytest.raises(UnsupportedDivisionError):
            G.div_monomial(ExtendedNumeral())


class TestOrder:
    def test_infinite_dominates_finite(self):
        assert G > 1e300
        assert G >= 1 and G >= G and not 1 - G >= 0

    def test_infinitesimal_between_zero_and_any_positive(self):
        inv = ExtendedNumeral({-1: 1.0})
        assert inv > 0
        assert inv < 1e-300

    def test_equal_leading_grades(self):
        assert 2 * G - 3 < 2 * G + 1

    def test_total_order_on_reals(self):
        assert as_numeral(2.0) < as_numeral(3.0)
        assert as_numeral(-1.0) < as_numeral(0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
    def test_non_finite_float_is_unequal(self, value):
        for x in (G, ExtendedNumeral.from_real(1.0), ExtendedNumeral()):
            assert not x == value and x != value and not value == x

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_ordering_against_non_finite_float_raises(self, value):
        for order in (G.__lt__, G.__le__, G.__gt__, G.__ge__, G.compare):
            with pytest.raises(ValueError, match="is not finite, so it is no extended numeral"):
                order(value)
        with pytest.raises(ValueError, match="is not finite"):
            value < G

    @given(x=numerals, y=numerals, z=numerals)
    @settings(max_examples=100, deadline=None)
    def test_translation_preserves_order(self, x, y, z):
        if x < y:
            assert x + z < y + z

    @given(x=numerals, y=numerals)
    @settings(max_examples=100, deadline=None)
    def test_positive_monomial_multiplication_preserves_order(self, x, y):
        scale = ExtendedNumeral.monomial(2.5, 2)
        if x < y:
            assert scale * x <= scale * y


finite_reals = st.floats(-1e3, 1e3) | st.integers(-2 ** 64, 2 ** 64)
values = numerals | finite_reals | finite_reals.map(ExtendedNumeral.from_real)


class TestEqualityAndHash:
    def test_equality_is_exact(self):
        assert not G == "G" and G != "G"  # text is no numeral until parsed
        assert ExtendedNumeral({1: 1.0 + 2.0 ** -52}) != G
        assert ExtendedNumeral.from_real(2.0 ** 60) != 2 ** 60 + 1
        assert ExtendedNumeral({1: 2.0, 0: 0.5}) == ExtendedNumeral({0: 0.5, 1: 2.0})

    def test_finite_numeral_hashes_as_its_real(self):
        assert len({ExtendedNumeral.from_real(1.0), 1, 1.0}) == 1
        assert hash(ExtendedNumeral()) == hash(0)
        with pytest.raises(AttributeError, match="immutable"):  # so the hash cannot go stale
            G.terms = {}

    @given(x=values, y=values)
    @settings(max_examples=200, deadline=None)
    @example(x=ExtendedNumeral.from_real(1.0), y=1)
    @example(x=ExtendedNumeral.from_real(2.0 ** 60), y=2 ** 60 + 1)
    @example(x=ExtendedNumeral({1: 2.0, 0: 0.5}), y=ExtendedNumeral({0: 0.5, 1: 2.0}))
    def test_equal_implies_same_hash(self, x, y):
        if x == y:
            assert hash(x) == hash(y)


class TestTextFormat:
    def test_parse_example(self):
        num = parse_numeral("3*G^2 + 1.5 - 2*G^-1")
        assert num == ExtendedNumeral({2: 3.0, 0: 1.5, -1: -2.0})

    def test_round_trip(self):
        for text in ["3.0*G^2 + 1.5 - 2.0*G^-1", "G", "-G^3", "0.25",
                     "G - 1.0"]:
            num = parse_numeral(text)
            assert str(num) == text
            assert parse_numeral(str(num)) == num

    @given(x=numerals, y=numerals)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact_coefficients(self, x, y):
        # products of float coefficients are exact, and print as p/q
        assert parse_numeral(str(x * y)) == x * y

    def test_round_trip_from_real(self):
        assert as_numeral(0.1).to_real() == 0.1
        assert parse_numeral(str(as_numeral(-2.75))).to_real() == -2.75
        with pytest.raises(ValueError, match="has infinite or infinitesimal part"):
            G.to_real()

    def test_rejects_garbage(self):
        # 1e400, -1e400*G and the sum have coefficients beyond float64 range,
        # 1e-400 and 1e-400*G nonzero ones that round to 0, and the last is 10
        # in Arabic-Indic digits
        for text in ["", "3**G", "G^", "1 2", "1/0*G", "1.5/3", "1e400", "-1e400*G",
                     "1e308*G + 1e308*G", "1e-400", "1e-400*G", "\u0661\u0660"]:
            with pytest.raises(ValueError):
                parse_numeral(text)
        with pytest.raises(ValueError, match=r"cannot parse numeral '1\.5/3' at position 3"):
            parse_numeral("1.5/3")  # p/q takes an integer p only
        with pytest.raises(TypeError, match="cannot interpret 'x'"):  # arithmetic parses no text
            G + "x"


class TestScaledCriterionRun:
    def test_identity_scaling_reproduces_trace(self):
        base = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=8)
        scaled, certs = scaled_criterion_run(sin3x2, 1.0, 0.0, [-1.0], [1.0],
                                             budget=8)
        assert base.grid_indices == scaled.grid_indices
        assert all(c.collapsed for c in certs)

    def test_infinite_scaling(self):
        base = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=15)
        scaled, certs = scaled_criterion_run(sin3x2, "G", "G^2", [-1.0], [1.0],
                                             budget=15)
        assert base.grid_indices == scaled.grid_indices
        assert all(c.collapsed and c.max_relative_deviation == 0.0 for c in certs)
        # the model sees the same normalized values as the base run
        assert [r.criterion for r in scaled.records] == \
            [r.criterion for r in base.records]
        assert [c.iteration for c in certs] == list(range(1, 16))

    @pytest.mark.parametrize("algorithm", [opt.P_ALGORITHM, opt.ONE_STEP_BAYES])
    def test_trace_does_not_depend_on_the_scaling(self, algorithm):
        # the trace is in the normalized frame for every positive single-term a
        def trace_csv(a, b):
            trace, _ = scaled_criterion_run(sin3x2, a, b, [-1.0], [1.0], budget=25,
                                            algorithm=algorithm)
            return trace.to_csv()

        reference = trace_csv(1, 0)
        for a, b in ((3.9765, -7.3), (1e-8, 1e9), ("G", "G^2"), ("3*G^-2", "-7")):
            assert trace_csv(a, b) == reference, (a, b)

    def test_squared_exponential_matches_base_bit_for_bit(self):
        kernel = CorrelationKernel("squared-exponential", 5.0)
        base = opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=15,
                       kernel=kernel)
        scaled, _ = scaled_criterion_run(sin3x2, "G", "G^2", [-1.0], [1.0],
                                         budget=15, kernel=kernel)
        assert scaled.grid_indices == base.grid_indices
        assert [r.criterion for r in scaled.records] == \
            [r.criterion for r in base.records]

    def test_expected_improvement_supported(self):
        base = opt.run(opt.ONE_STEP_BAYES, gramacy_lee, [0.5], [2.5], budget=10)
        scaled, _ = scaled_criterion_run(gramacy_lee, "2.5*G", "-4*G^2 + 1",
                                         [0.5], [2.5], budget=10,
                                         algorithm=opt.ONE_STEP_BAYES)
        assert scaled.grid_indices == base.grid_indices

    def test_all_degenerate_raises_like_argmax(self, monkeypatch):
        def zero_variances(self, points):
            m = len(points)
            return np.full(m, self.parameters.mu), np.zeros(m), np.zeros(m, bool)

        monkeypatch.setattr(SurrogatePosterior, "moments_grid", zero_variances)
        with pytest.raises(AllCandidatesDegenerateError):
            opt.run(opt.P_ALGORITHM, sin3x2, [-1.0], [1.0], budget=1)
        with pytest.raises(AllCandidatesDegenerateError):
            scaled_criterion_run(sin3x2, "G", "G^2", [-1.0], [1.0], budget=1)

    def test_values_not_one_affine_image_fail_to_collapse(self):
        # G*x on x < 0 and x elsewhere: the spread is set by the infinite
        # half, so the finite half normalizes to 2 + G^-1 at x = 0.5.
        def half_infinite(x):
            return G * x if x < 0 else x

        with pytest.raises(CollapseError, match="outside grade 0"):
            scaled_criterion_run(half_infinite, 1.0, 0.0, [-1.0], [1.0], budget=3)
        # (G + 1)*x: the spread has two grades, so nothing normalizes
        with pytest.raises(CollapseError, match="more than one grade"):
            scaled_criterion_run(lambda x: (G + 1) * x, 1.0, 0.0, [-1.0], [1.0],
                                 budget=3)

    def test_infinitesimal_scaling(self):
        # gramacy-lee has nearly symmetric criterion peaks, so compare with
        # the near-tie guard instead of demanding raw index equality
        from scaleopt.harness import compare_traces
        base = opt.run(opt.P_ALGORITHM, gramacy_lee, [0.5], [2.5], budget=10)
        scaled, _ = scaled_criterion_run(gramacy_lee, "3*G^-2", "-7", [0.5],
                                         [2.5], budget=10)
        report = compare_traces(base, scaled, opt.P_ALGORITHM, "3*G^-2", "-7")
        assert report.passed

    def test_non_finite_objective_raises(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ObjectiveEvaluationError):
                scaled_criterion_run(lambda x: bad, "G", "G^2", [-1.0], [1.0], budget=1)

    @pytest.mark.parametrize("a, b", [(1, 0), ("G", "G^2"), (3.9765, -7.3)])
    def test_normalized_overflow_raises_at_the_point(self, a, b):
        # as in the float run, y_0 = 0 and s = a*1e-300 put h at 0.5 beyond float64
        with pytest.raises(ObjectiveEvaluationError) as info:
            scaled_criterion_run(overflowing, a, b, [-1.0], [1.0], budget=2,
                                 initial_design=[[-1.0], [-0.5], [0.5]])
        assert info.value.point[0] == 0.5

    def test_non_monomial_scale_rejected(self):
        with pytest.raises(UnsupportedScaleError):
            scaled_criterion_run(sin3x2, "G + 1", 0.0, [-1.0], [1.0], budget=1)

    def test_negative_scale_rejected(self):
        with pytest.raises(UnsupportedScaleError):
            scaled_criterion_run(sin3x2, -2.0, 0.0, [-1.0], [1.0], budget=1)


def normalized_by_numerals(a, b, values):
    """The oracle: each h = ((a*y + b) - (a*y_0 + b))/s in ``ExtendedNumeral``
    arithmetic, as a float, up to the first value that fails; then how it fails."""
    anchor = scale = None
    out = []
    for y in values:
        z = a * y + b
        anchor = z if anchor is None else anchor
        diff = z - anchor
        if scale is None and not diff.is_zero:
            if not diff.is_monomial:
                return out, "more than one grade"
            scale = diff if diff > 0 else -diff
        h = diff if scale is None else diff / scale
        if not h.is_finite:
            return out, "outside grade 0"
        try:
            out.append(float(h.to_real()))
        except OverflowError:
            return out, "overflow"
    return out, None


reals = st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False)
affine_images = st.builds(lambda x: G * x + 3, reals)  # one affine numeral image of x
any_value = st.one_of(reals, affine_images, st.builds(lambda u, v: G * u + v, reals, reals))
# values of one kind, repeats among them, then a tail of any kind
one_kind = st.one_of(st.lists(reals, min_size=1, max_size=4),
                     st.lists(affine_images, min_size=1, max_size=4)).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6))
sequences = st.builds(list.__add__, one_kind, st.lists(any_value, max_size=2))
scales = st.builds(ExtendedNumeral.monomial,
                   st.floats(1e-12, 1e12) | st.fractions(Fraction(1, 10 ** 6), 10 ** 6)
                   .filter(lambda c: c > 0),
                   st.integers(-2, 2))
offsets = st.dictionaries(st.integers(-3, 3), reals, max_size=3).map(ExtendedNumeral)


@settings(max_examples=150, deadline=None)
@given(a=scales, b=offsets, values=sequences)
@example(a=G, b=G * G, values=[0.0, -1e-300, 1e300])  # s = G*1e-300, h = 1e600 overflows
@example(a=G, b=G * G, values=[0.0, 1e300, -1e-30])  # h rounds to -0.0
@example(a=as_numeral(1), b=ExtendedNumeral(), values=[G * 2 + 3, G + 3, G * 2 + 1])
def test_grade_columns_match_the_numeral_oracle(a, b, values):
    # the scaled run's design values are its normalized values, exactly as rounded
    points = np.linspace(0.0, 1.0, len(values))
    by_point = dict(zip(points.tolist(), values))
    want, failure = normalized_by_numerals(a, b, values)

    def run():
        return scaled_criterion_run(lambda x: by_point[float(x)], a, b, [0.0], [1.0],
                                    budget=0, initial_design=points[:, None])

    if failure is None:
        got = [r.value for r in run()[0].records]
        assert [(h, math.copysign(1.0, h)) for h in got] == \
            [(h, math.copysign(1.0, h)) for h in want]
        return
    error = ObjectiveEvaluationError if failure == "overflow" else CollapseError
    with pytest.raises(error, match=None if failure == "overflow" else failure) as info:
        run()
    failed_at = points[len(want)].item()
    if failure == "overflow":
        assert info.value.point[0] == failed_at
    else:
        assert f"x={[failed_at]}" in str(info.value)
