from itertools import product

import pytest

from morsepow import (
    ONE,
    Monomial,
    ParseError,
    Variables,
    divides,
    format_monomial,
    is_squarefree,
    lcm,
    mul,
    parse_generators,
    parse_monomial,
)

from conftest import exact_quotient

V = Variables("xyzu")


def m(text):
    return parse_monomial(text, V)


def test_lcm_examples():
    assert lcm(m("xy"), m("yz")) == m("xyz")
    assert lcm(m("xy"), m("xy")) == m("xy")
    assert lcm(m("xy"), m("zu")) == m("xyzu")


def test_divides_examples():
    assert divides(m("yz"), m("xyz"))
    assert not divides(m("xy"), m("yz"))
    assert divides(m("xy"), m("xy"))


def test_mul_div_examples():
    assert mul(m("xy"), m("yz")) == m("xy2z")


def test_squarefree():
    assert is_squarefree(m("xyzu"))
    assert not is_squarefree(m("xy2z"))
    assert is_squarefree(ONE)


def small_monomials():
    """All monomials in x, y with exponents up to 2."""
    return [
        Monomial.from_dict({0: a, 1: b}) for a, b in product(range(3), repeat=2)
    ]


def test_lcm_laws_exhaustive():
    ms = small_monomials()
    for a in ms:
        assert lcm(a, a) == a
        for b in ms:
            assert lcm(a, b) == lcm(b, a)
            assert divides(a, lcm(a, b))
            for c in ms:
                assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))


def test_mul_div_roundtrip_exhaustive():
    ms = small_monomials()
    for a in ms:
        for b in ms:
            assert exact_quotient(mul(a, b), b) == a


def test_squarefree_lcm_closed():
    sf = [x for x in small_monomials() if is_squarefree(x)]
    for a in sf:
        for b in sf:
            assert is_squarefree(lcm(a, b))


def test_parse_both_forms():
    assert m("x*y^2*z") == m("xy2z")
    assert m("1") == ONE
    assert m("x*y2*z") == m("x*y^2*z")


def test_parse_infers_variables_in_first_appearance_order():
    gens, variables = parse_generators(["x*y", "y*z", "z*u"])
    assert variables.names == ("x", "y", "z", "u")
    assert gens[0] == parse_monomial("x*y", variables)
    # a single factor with an underscore is read in the explicit form
    gens, variables = parse_generators(["x_2", "x_0"])
    assert variables.names == ("x_2", "x_0")
    assert gens == [Monomial(((0, 1),)), Monomial(((1, 1),))]
    # a declared name ending in a digit is that variable, not an exponent
    vs = Variables(["v0", "v1"])
    gens, _ = parse_generators(["v0*v1", "v1^2", "v0"], vs)
    assert gens == [Monomial(((0, 1), (1, 1))), Monomial(((1, 2),)), Monomial(((0, 1),))]
    assert parse_monomial("v0 * v1", vs) == gens[0]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_monomial("x+y", V)
    with pytest.raises(ParseError):
        parse_monomial("w", V)  # unknown variable
    with pytest.raises(ParseError):
        Variables(["x", "x"])


def test_format_emits_explicit_form():
    assert format_monomial(m("xy2z"), V) == "x*y^2*z"
    assert format_monomial(ONE, V) == "1"
    assert format_monomial(m("x"), V) == "x"


def test_total_order_is_deterministic():
    ms = sorted(small_monomials())
    assert ms == sorted(reversed(ms))
    assert len(set(ms)) == len(set(small_monomials()))
