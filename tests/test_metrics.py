import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from citerank.errors import DataError
from citerank.metrics import (
    EntityTally,
    SiConfig,
    hs_index,
    implied_references,
    pearson,
    si,
    usi,
)


class TestUsi:
    def test_known_value(self):
        assert usi(34516, 3776) == pytest.approx(0.9013893241408127, abs=1e-15)

    def test_no_valenced_statements_is_undefined(self):
        assert usi(0, 0) is None

    def test_extremes(self):
        assert usi(5, 0) == 1.0
        assert usi(0, 7) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            usi(-1, 0)
        with pytest.raises(ValueError):
            usi(0, -3)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_bounds(self, supporting, contrasting):
        value = usi(supporting, contrasting)
        if supporting + contrasting == 0:
            assert value is None
        else:
            assert 0.0 <= value <= 1.0


class TestSi:
    def test_known_value_base_10(self):
        # log10(250 * 0.5**2) = log10(62.5)
        assert si(250, 0.5) == pytest.approx(1.7958800173440752, abs=1e-12)

    def test_known_value_base_e(self):
        config = SiConfig(log_base=math.e)
        assert si(250, 0.5, config) == pytest.approx(math.log(62.5), abs=1e-12)

    def test_undefined_cases(self):
        assert si(0, 0.5) is None
        assert si(10, 0.0) is None

    def test_zero_point(self):
        assert si(1, 1.0) == 0.0

    def test_negative_region(self):
        assert si(3, 0.5) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="references must be >= 0"):
            si(-1, 0.5)
        with pytest.raises(ValueError):
            si(10, 1.5)
        with pytest.raises(ValueError):
            si(10, -0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SiConfig(exponent=0)
        with pytest.raises(ValueError):
            SiConfig(log_base=1.0)
        with pytest.raises(ValueError):
            SiConfig(log_base=0.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_config_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            SiConfig(exponent=value)
        with pytest.raises(ValueError, match="finite"):
            SiConfig(log_base=value)

    def test_score_past_the_float_range_is_a_data_error(self):
        # log10(0.001) * 1e308 is -3e308, past the largest float
        with pytest.raises(DataError, match="si is not finite"):
            si(1000, 0.001, SiConfig(exponent=1e308))
        assert si(1000, 0.5, SiConfig(exponent=1e308)) < -1e307

    def test_exponent_changes_discount(self):
        # a harsher exponent must discount a contested entity more
        soft = si(1000, 0.5, SiConfig(exponent=1))
        hard = si(1000, 0.5, SiConfig(exponent=3))
        assert hard < soft

    @given(
        st.integers(1, 10**9),
        st.floats(1e-6, 1.0),
        st.integers(1, 10**6),
    )
    @settings(max_examples=200)
    def test_monotone_in_references(self, references, usi_value, bump):
        assert si(references + bump, usi_value) > si(references, usi_value)


class TestImpliedReferences:
    def test_known_value(self):
        value = implied_references(6.24, 34516 / 38292)
        assert value == pytest.approx(2138824.645753033, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            implied_references(3.0, 0.0)
        with pytest.raises(ValueError):
            implied_references(3.0, 1.2)

    @given(st.floats(-5.0, 9.0), st.floats(1e-6, 1.0))
    @settings(max_examples=300)
    def test_round_trip(self, si_value, usi_value):
        recovered = si(implied_references(si_value, usi_value), usi_value)
        assert recovered == pytest.approx(si_value, rel=1e-9, abs=1e-9)


class TestHsIndex:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ([], 0),
            ([0, 0, 0], 0),
            ([1], 1),
            ([2], 1),
            ([5, 4, 3, 2, 1], 3),
            ([3, 3, 3], 3),
            ([10, 9, 1], 2),
            ([12] * 12, 12),
            ([1] * 30, 1),
        ],
    )
    def test_known_values(self, counts, expected):
        assert hs_index(counts) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hs_index([3, -1])

    @given(st.lists(st.integers(0, 50), max_size=40), st.randoms())
    def test_order_invariant(self, counts, rng):
        shuffled = list(counts)
        rng.shuffle(shuffled)
        assert hs_index(shuffled) == hs_index(counts)

    @given(st.lists(st.integers(0, 50), max_size=40))
    def test_definition(self, counts):
        h = hs_index(counts)
        assert sum(1 for c in counts if c >= h) >= h
        assert sum(1 for c in counts if c >= h + 1) < h + 1


def coordinates(n):
    """n finite floats: either drawn from the whole float range, or small
    integers times one power of two anywhere in it."""
    anywhere = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    scaled = st.tuples(
        st.lists(st.integers(-1000, 1000), min_size=n, max_size=n), st.integers(-1080, 1013)
    ).map(lambda drawn: [math.ldexp(m, drawn[1]) for m in drawn[0]])
    return anywhere | scaled


@st.composite
def point_sets(draw):
    n = draw(st.integers(2, 12))
    return list(zip(draw(coordinates(n)), draw(coordinates(n))))


def oracle_pearson(points):
    """Exact r, to 50 digits, and the error a two-pass float computation may
    make; None when a coordinate has zero variance.

    Centered sums are exact Fractions.  The float mean is off by at most
    e = n * u * max|v| (u the unit roundoff); since the exact deviations sum
    to zero, that error enters the centered sums only at second order
    (n * e_x * e_y in sxy, n * e_x**2 in sxx), so r is good to about
    (rho_x + rho_y)**2 with rho = e / sd, on top of a few n * u of ordinary
    rounding.  A nearly constant coordinate has a large rho and no accuracy
    to promise.
    """
    n = len(points)
    columns = [[Fraction(v) for v in column] for column in zip(*points)]
    means = [sum(column) / n for column in columns]
    xs, ys = ([v - mean for v in column] for column, mean in zip(columns, means))
    sxx = sum(dx * dx for dx in xs)
    syy = sum(dy * dy for dy in ys)
    sxy = sum(dx * dy for dx, dy in zip(xs, ys))
    if sxx == 0 or syy == 0:
        return None
    with mpmath.workdps(50):

        def real(q):
            return mpmath.mpf(q.numerator) / q.denominator

        r = real(sxy) / mpmath.sqrt(real(sxx) * real(syy))
        rho = sum(
            n * 2.0**-53 * max(abs(v) for v in column) / mpmath.sqrt(real(ss) / n)
            for column, ss in zip(columns, (sxx, syy))
        )
        return float(r), 1e-12 + float(2 * rho**2)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([(1, 2), (2, 4), (3, 6)]) == 1.0

    def test_perfect_negative(self):
        assert pearson([(1, 6), (2, 4), (3, 2)]) == -1.0

    def test_too_few_pairs(self):
        with pytest.raises(DataError):
            pearson([(1.0, 2.0)])

    def test_zero_variance(self):
        with pytest.raises(DataError):
            pearson([(1, 5), (1, 7), (1, 9)])
        with pytest.raises(DataError):
            pearson([(1, 5), (2, 5), (3, 5)])
        with pytest.raises(DataError):  # the float mean of the y values is not one of them
            pearson([(0, 3002399751580331.0), (0, 3002399751580331.0), (1, 3002399751580331.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # the clamp below would otherwise report nan as r = 1.0
        with pytest.raises(DataError):
            pearson([(1.0, 2.0), (2.0, bad), (3.0, 5.0)])
        with pytest.raises(DataError):
            pearson([(bad, 2.0), (2.0, 4.0), (3.0, 5.0)])

    def test_clamped(self):
        points = [(float(i), float(i) * 3.0 + 1.0) for i in range(100)]
        assert abs(pearson(points)) <= 1.0

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=3,
            max_size=50,
        ),
        st.floats(0.1, 10.0),
        st.floats(-100.0, 100.0),
    )
    @settings(max_examples=200)
    def test_affine_invariance(self, points, scale, shift):
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        # a spread comparable to the shift keeps cancellation harmless;
        # exact affine invariance only holds in real arithmetic
        assume(max(xs) - min(xs) > 1e-3 and max(ys) - min(ys) > 1e-3)
        base = pearson(points)
        moved = pearson([(x * scale + shift, y) for x, y in points])
        assert moved == pytest.approx(base, abs=1e-7)

    @pytest.mark.parametrize("scale", [1e200, 1.5e306, 1e-200])
    def test_extreme_magnitudes(self, scale):
        # squares of 1e200 and sums of 1.5e306 overflow; squares of 1e-200 underflow
        unit = [(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)]
        assert pearson([(x * scale, y) for x, y in unit]) == pytest.approx(
            pearson(unit), abs=1e-12
        )

    @settings(max_examples=400, deadline=None)
    @given(point_sets())
    def test_matches_exact_oracle(self, points):
        exact = oracle_pearson(points)
        if exact is None:
            with pytest.raises(DataError):
                pearson(points)
            return
        r, tolerance = exact
        assert abs(pearson(points) - r) <= tolerance


class TestEntityTally:
    def test_derived_counts(self):
        tally = EntityTally(5, 9, 2, 20)
        assert tally.valenced == 7
        assert tally.statement_total == 16

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EntityTally(supporting=-1)
