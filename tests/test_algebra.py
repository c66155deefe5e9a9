import random

import pytest

from cube_oracle import PolyRing, smith_over_poly_ring
from state_sum_oracle import exact_div
from knotrank.algebra import (F2, F3, F211, QQ, CoefficientField,
                              LaurentPolynomial, mod_2_t4, parse_field,
                              zeta8_to_iroot2)


def t_to_q(p: LaurentPolynomial) -> LaurentPolynomial:
    """Substitute t = q^2."""
    return LaurentPolynomial({2 * e: c for e, c in p.coeffs.items()})


def rand_poly(rng, span=5, coeff=9):
    return LaurentPolynomial({e: rng.randint(-coeff, coeff)
                              for e in range(-span, span)})


def test_laurent_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * LaurentPolynomial({0: 1}) == a
        assert a + LaurentPolynomial() == a
        assert a - a == LaurentPolynomial()


def test_laurent_no_zero_coefficients_stored():
    p = LaurentPolynomial({0: 1, 3: 0, -2: 2})
    assert 3 not in p.coeffs


def test_laurent_constant_hashes_as_its_int():
    # equal values must hash alike, so a constant finds its int's key
    assert LaurentPolynomial({0: 5}) == 5
    assert hash(LaurentPolynomial({0: 5})) == hash(5)
    assert {5: "a"}.get(LaurentPolynomial({0: 5})) == "a"
    assert {0: "z"}.get(LaurentPolynomial()) == "z"
    assert {LaurentPolynomial({0: -1}): "b"}.get(-1) == "b"
    p = LaurentPolynomial({0: 5, 1: 1})
    assert {p: "c"}.get(LaurentPolynomial({1: 1, 0: 5})) == "c"


def test_laurent_eval():
    p = LaurentPolynomial({-1: 1, 0: -1, 1: 1})  # trefoil Alexander
    assert p.evaluate(1) == 1
    assert p.evaluate(-1) == -3
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0)
    assert LaurentPolynomial({0: 1}).evaluate(7) == 1


def test_laurent_exact_div():
    delta = LaurentPolynomial({2: -1, -2: -1})
    p = delta * LaurentPolynomial({0: 3, 4: -2})
    assert exact_div(p, delta) == LaurentPolynomial({0: 3, 4: -2})
    with pytest.raises(ValueError):
        exact_div(LaurentPolynomial({0: 1, 1: 1}), delta)


def test_laurent_serialize():
    p = LaurentPolynomial({-8: -1, -6: 1, -2: 1})
    assert p.serialize("q") == "-1*q^-8+1*q^-6+1*q^-2"
    assert LaurentPolynomial().serialize() == "0"


def test_q_t_conversion():
    p = LaurentPolynomial({-2: 3, 4: 1})
    assert p.q_to_t() == LaurentPolynomial({-1: 3, 2: 1})
    with pytest.raises(ValueError):
        LaurentPolynomial({1: 1}).q_to_t()
    assert t_to_q(p.q_to_t()) == p


def test_fields():
    assert parse_field("q") == QQ
    assert parse_field("f211") == F211
    assert F3.name == "f3"
    with pytest.raises(ValueError):
        CoefficientField(6)
    with pytest.raises(ValueError):
        parse_field("f0")


# -- the quotient ring F2[t]/(1 + t^4) --------------------------------------


def test_exponent_folding():
    assert mod_2_t4(LaurentPolynomial({5: 1})) == 0b0010
    assert mod_2_t4(LaurentPolynomial({-1: 1})) == 0b1000
    # Delta(4_1) = -1/t + 3 - t  ->  1 + t + t^3
    d41 = LaurentPolynomial({-1: -1, 0: 3, 1: -1})
    assert mod_2_t4(d41) == 0b1011
    # Delta(6_1) = -2/t + 5 - 2t  ->  1
    d61 = LaurentPolynomial({-1: -2, 0: 5, 1: -2})
    assert mod_2_t4(d61) == 0b0001


def times_mod_2_t4(x: int, y: int) -> int:
    """The product of two 4-bit classes in F2[t]/(1+t^4)."""
    out = 0
    for i in range(4):
        for j in range(4):
            if x >> i & y >> j & 1:
                out ^= 1 << ((i + j) % 4)
    return out


def test_reduction_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        ra, rb = mod_2_t4(a), mod_2_t4(b)
        assert mod_2_t4(a * b) == times_mod_2_t4(ra, rb)
        assert mod_2_t4(a + b) == ra ^ rb


# -- Z[zeta_8] ---------------------------------------------------------------


def test_zeta8_evaluation():
    # -(q + 1/q) at q = zeta_8 is -sqrt(2)
    p = LaurentPolynomial({1: -1, -1: -1})
    assert zeta8_to_iroot2(p.evaluate_zeta8()) == (0, 0, -1, 0)
    one = LaurentPolynomial({0: 1})
    assert zeta8_to_iroot2(one.evaluate_zeta8()) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        zeta8_to_iroot2((0, 1, 0, 0))  # bare zeta_8 is not in Z[i, sqrt2]


# -- Smith normal form over F[X] ----------------------------------------------


def X_power(k, c=1):
    return tuple([0] * k + [c])


def test_smith_zero_matrix():
    inv = smith_over_poly_ring([[(), ()], [(), ()]], 3)
    assert inv.free_rank == 2 and inv.torsion_factors == ()


def test_smith_diagonal():
    inv = smith_over_poly_ring([[X_power(1), ()], [(), X_power(3)]], 3)
    assert inv.free_rank == 0
    assert sorted(inv.torsion_degrees()) == [1, 3]


def test_smith_unit_entry_reduces_rank():
    m = [[(1,), X_power(2)], [X_power(1), X_power(3)]]
    inv = smith_over_poly_ring(m, 0)
    # unit pivot kills one row; the Schur complement is X^3 - X^3 = 0
    assert inv.free_rank == 1
    assert inv.torsion_factors == ()


def test_smith_divisibility_chain_and_unimodular_invariance():
    rng = random.Random(3)
    p = 3

    def rand_mat():
        return [[tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
                 for _ in range(3)] for _ in range(3)]

    R = PolyRing(p)
    for _ in range(25):
        m = rand_mat()
        inv = smith_over_poly_ring(m, p)
        degs = inv.torsion_degrees()
        assert list(degs) == sorted(degs)
        # random row operation: add X^k * row_i to row_j
        k = rng.randrange(2)
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            m2 = [row[:] for row in m]
            for col in range(3):
                m2[j][col] = R.add(m2[j][col], R.mul(X_power(k), m2[i][col]))
            inv2 = smith_over_poly_ring(m2, p)
            assert inv2.free_rank == inv.free_rank
            assert inv2.torsion_factors == inv.torsion_factors
