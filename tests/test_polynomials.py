import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rowtuples.errors import PolynomialParseError, ShapeError
from rowtuples.polynomials import (
    Polynomial,
    abelianize,
    format_columns,
    format_polynomial,
    graded_indices,
    graded_positions,
    graded_rank,
    graded_words,
    multinomial,
    parse_polynomial,
)


class TestGradedEnumeration:
    def test_indices_d2_deg2(self):
        assert graded_indices(2, 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_indices_d1(self):
        assert graded_indices(1, 3) == [(0,), (1,), (2,), (3,)]

    def test_words_d2_len2(self):
        assert graded_words(2, 2) == [
            (),
            (1,),
            (2,),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ]

    def test_word_order_mirrors_index_order(self):
        # first occurrence of each abelianization follows the graded index order
        seen = []
        for w in graded_words(3, 3):
            a = abelianize(w, 3)
            if a not in seen:
                seen.append(a)
        assert seen == graded_indices(3, 3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rank_is_the_enumerated_position(self, d):
        for n in (0, 1, 2, 6):
            basis = graded_indices(d, n)
            assert graded_rank(np.array(basis)).tolist() == list(range(len(basis)))
            shuffled = basis[::-1]
            positions = graded_positions(d, n)
            assert graded_rank(np.array(shuffled)).tolist() == [positions[a] for a in shuffled]
        assert graded_rank(np.zeros((0, d), dtype=int)).shape == (0,)

    def test_counts(self):
        import math

        for d in (1, 2, 3):
            for n in (0, 1, 4):
                assert len(graded_indices(d, n)) == math.comb(n + d, d)
                assert len(graded_words(d, n)) == sum(d**k for k in range(n + 1))


class TestMultinomial:
    @pytest.mark.parametrize(
        "alpha,expected",
        [((0, 0), 1), ((1, 0), 1), ((1, 1), 2), ((2, 1), 3), ((2, 2), 6), ((1, 1, 1), 6)],
    )
    def test_known_values(self, alpha, expected):
        assert multinomial(alpha) == expected

    def test_counts_words(self):
        from collections import Counter

        counts = Counter(abelianize(w, 2) for w in graded_words(2, 5) if len(w) == 5)
        for alpha, n in counts.items():
            assert multinomial(alpha) == n


class TestPolynomialArithmetic:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 1.0, (0, 1): 0.0})
        assert list(p.coeffs) == [(1, 0)]
        assert (p - p).is_zero()

    def test_add_mul(self):
        x1 = Polynomial.variable(2, 1)
        x2 = Polynomial.variable(2, 2)
        p = (x1 + x2) * (x1 - x2)
        assert p == Polynomial(2, {(2, 0): 1, (0, 2): -1})

    def test_scalar_ops(self):
        x = Polynomial.variable(1, 1)
        assert 2 * x + 1 == Polynomial(1, {(1,): 2, (0,): 1})

    def test_evaluate(self):
        p = parse_polynomial("x1^2*x2 + 2i*x2")
        assert p.evaluate([2.0, 3.0]) == pytest.approx(12 + 6j)

    def test_degree(self):
        assert Polynomial.zero(2).degree() == -1
        assert Polynomial.constant(2, 5).degree() == 0
        assert parse_polynomial("x1*x2^3").degree() == 4

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            Polynomial.variable(2, 1) + Polynomial.variable(3, 1)

    def test_coefficient_vector_round_trip(self):
        indices = graded_indices(2, 3)
        p = Polynomial(2, {(1, 2): 1j, (0, 0): -2})
        v = p.coefficient_vector(indices)
        assert Polynomial.from_coefficient_vector(2, indices, v) == p


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x1", Polynomial(1, {(1,): 1})),
            ("x1 + x2", Polynomial(2, {(1, 0): 1, (0, 1): 1})),
            ("-x1", Polynomial(1, {(1,): -1})),
            ("3*x1^2*x2", Polynomial(2, {(2, 1): 3})),
            ("(1+2i)*x1 - 3", Polynomial(1, {(1,): 1 + 2j, (0,): -3})),
            ("2i*x2", Polynomial(2, {(0, 1): 2j})),
            ("i", Polynomial(1, {(0,): 1j})),
            ("1.5e-3", Polynomial(1, {(0,): 1.5e-3})),
            ("(2-i)", Polynomial(1, {(0,): 2 - 1j})),
            ("x1^0", Polynomial(1, {(0,): 1})),
        ],
    )
    def test_parse_cases(self, text, expected):
        assert parse_polynomial(text) == expected

    def test_parse_with_explicit_d(self):
        p = parse_polynomial("x1", d=3)
        assert p.d == 3

    @pytest.mark.parametrize("bad", ["", "x0", "x1 +", "x1^", "(1+2i", "x1 x2", "2**x1", "y1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad)

    def test_errors_quote_source_text(self):
        with pytest.raises(PolynomialParseError, match="trailing input: 'x2'"):
            parse_polynomial("x1^2 - 0.5 x2")
        with pytest.raises(PolynomialParseError, match="expected 'num', got 'x3'"):
            parse_polynomial("x1^x3")

    @pytest.mark.parametrize("text", ["x1^1.5", "x1^1e3", "x1^2.0", "x1^.5", "x1^" + "9" * 5000])
    def test_exponent_must_be_a_digit_string(self, text):
        # a decimal or too long exponent is a parse error, not a raw ValueError
        with pytest.raises(PolynomialParseError, match="exponent"):
            parse_polynomial(text)

    @pytest.mark.parametrize(
        "text, literal",
        [("1e999*x1", "1e999"), ("1e999-1e999", "1e999"), ("(1+1e999i)*x1", "1e999i"),
         ("2e308i", "2e308i")],
    )
    def test_number_literal_must_be_a_finite_float(self, text, literal):
        # float() turns these into inf, and their difference into nan
        with pytest.raises(PolynomialParseError, match=f"number '{literal}' overflows a float"):
            parse_polynomial(text)

    @pytest.mark.parametrize(
        "text, term",
        [("1e200*1e200*x1", "1e200*1e200*x1"), ("x2 - 1e200*x1*1e200", "1e200*x1*1e200"),
         ("(1e308+1e308)*x1", "(1e308+1e308)*x1"), ("2i*1e200*1e200i", "2i*1e200*1e200i")],
    )
    def test_coefficient_product_must_be_a_finite_float(self, text, term):
        # each literal is finite, but the product in Polynomial.__mul__ is not
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == f"coefficient of term '{term}' overflows a float"

    def test_coefficient_sum_must_be_a_finite_float(self):
        with pytest.raises(PolynomialParseError, match="^coefficient of x1 overflows a float$"):
            parse_polynomial("1e308*x1 + 1e308*x1")
        with pytest.raises(PolynomialParseError, match="^coefficient of the constant term"):
            parse_polynomial("-1e308 - 1e308 + x2")

    def test_readme_example(self):
        assert parse_polynomial("x1^2 - 0.5*x2") == Polynomial(2, {(2, 0): 1, (0, 1): -0.5})

    def test_format_examples(self):
        assert format_polynomial(parse_polynomial("3*x1 + 2*x2")) == "3*x1 + 2*x2"
        assert format_polynomial(Polynomial.zero(2)) == "0"
        assert format_polynomial(Polynomial(2, {(1, 1): -1, (0, 0): 2})) == "2 - x1*x2"
        assert format_polynomial(Polynomial(1, {(2,): 1 + 1j})) == "(1+i)*x1^2"

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.complex_numbers(
                min_magnitude=0.25, max_magnitude=4, allow_nan=False, allow_infinity=False
            ),
            max_size=5,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, coeffs):
        p = Polynomial(2, coeffs)
        assert parse_polynomial(format_polynomial(p), d=2) == p


# Real and imaginary parts that exercise every branch of the coefficient
# format: signed zeros, units, integers on both sides of 1e15, subnormals.
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1e15, -1e15, 5e-324, -2.5e-310]),
    st.integers(-(10**16), 10**16).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
coefficients = st.one_of(
    st.builds(complex, parts, parts),
    st.builds(complex, st.just(0.0), parts),  # pure imaginary, +-i among them
    st.builds(complex, parts, st.sampled_from([0.0, -0.0])),
    st.just(0j),
)


@st.composite
def coefficient_matrices(draw):
    d = draw(st.integers(1, 3))
    monomials = graded_indices(d, draw(st.integers(0, 3)))
    cols = draw(st.integers(1, 4))
    mat = np.array(
        [[draw(coefficients) for _ in range(cols)] for _ in monomials], dtype=np.complex128
    )
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        mat[:, j] = 0  # all-zero columns render as "0"
    return d, monomials, mat


class TestFormatColumns:
    @given(coefficient_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_format_polynomial(self, case):
        d, monomials, mat = case
        expected = [
            str(Polynomial.from_coefficient_vector(d, monomials, col)) for col in mat.T
        ]
        assert format_columns(monomials, mat) == expected

    def test_examples(self):
        monomials = graded_indices(2, 1)
        mat = np.array([[2, 0, -0.0], [-1j, 0, 1 + 1j], [1, 0, -1]])
        assert format_columns(monomials, mat) == ["2 - i*x1 + x2", "0", "(1+i)*x1 - x2"]

    def test_rows_must_match_monomials(self):
        with pytest.raises(ShapeError):
            format_columns(graded_indices(2, 1), np.zeros((2, 1)))
