import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly
from free_stein.errors import ParseError
from free_stein.ncalg import BAlgebra, GeneratorSystem, NCPoly, generator_tuple
from free_stein.parser import parse_poly_tuple
from free_stein.scalars import QQi
from free_stein.serialize import poly_to_json, poly_tuple_to_json
from free_stein.stein import (DegreeScheme, irregularity_bounded,
                              irregularity_estimate, monomial_words)
from free_stein.trace import (FreeProductModel, SemicircularModel,
                              cyclic_group_model, two_point_measure)

S1 = GeneratorSystem(1)
S2 = GeneratorSystem(2)
T1, T2 = generator_tuple(S2)


def parse_one(text, system):
    (poly,) = parse_poly_tuple(text, system)
    return poly


def decode_poly(data, system):
    """The polynomial a ``poly_to_json`` form fixes, read back exactly."""
    assert (data["n"], data["b_dim"]) == (system.n, system.b.dim)
    acc = NCPoly.zero(system)
    for item in data["terms"]:
        word = []
        for pos, (kind, idx) in enumerate(item["word"]):
            assert kind == ("t" if pos % 2 else "b")
            word.append(idx - 1 if pos % 2 else idx)
        re, im = item["coeff"]
        acc = acc + NCPoly.from_word(system, word,
                                     QQi(Fraction(re), Fraction(im)))
    return acc


def test_parse_single_and_tuple():
    assert parse_poly_tuple("(t1)", S1) == (NCPoly.generator(S1, 0),)
    got = parse_poly_tuple("(t1*t2 + 2, t2)", S2)
    assert got == (T1 * T2 + NCPoly.scalar(S2, 2), T2)


def test_parse_scalars_powers_groups():
    assert parse_one("3/2", S1) == NCPoly.scalar(S1, QQi(Fraction(3, 2)))
    assert parse_one("i", S1) == NCPoly.scalar(S1, QQi(0, 1))
    assert parse_one("2i", S1) == NCPoly.scalar(S1, QQi(0, 2))
    assert parse_one("t1^3", S1) == NCPoly.generator(S1, 0) ** 3
    assert parse_one("(t1 + t2)*t1", S2) == (T1 + T2) * T1
    assert parse_one("(t1 + t2)*(t1)", S2) == (T1 + T2) * T1
    assert parse_one("(t1)^2*(t2)", S2) == T1 * T1 * T2
    assert parse_one("-t1 - -t2", S2) == -T1 + T2


def test_parse_unknown_generator_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly_tuple("(t3)", S2)
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse_one("t1 + + ", S2)
    with pytest.raises(ParseError):
        parse_one("t1 )", S2)
    with pytest.raises(ParseError):
        parse_one("t1 $ t2", S2)


@pytest.mark.parametrize("text, position", [
    ("(t1, t2", 7),  # an unclosed tuple
    ("(t1 + t2", 8),  # an unclosed expression
])
def test_parse_unclosed_bracket_names_the_end(text, position):
    with pytest.raises(ParseError,
                       match=r"^expected '\)', found 'end of input'") as err:
        parse_poly_tuple(text, S2)
    assert err.value.position == position


def test_parse_b_letters():
    b = BAlgebra(2, {(0, 0): ((0, 1),), (0, 1): (), (1, 0): (),
                     (1, 1): ((1, 1),)}, unit=((0, 1), (1, 1)))
    sysb = GeneratorSystem(1, b=b)
    got = parse_one("b0*t1*b1", sysb)
    assert got == (NCPoly.b_element(sysb, 0) * NCPoly.generator(sysb, 0)
                   * NCPoly.b_element(sysb, 1))
    with pytest.raises(ParseError):
        parse_one("b2", sysb)


def test_poly_roundtrip_bit_exact(rng):
    for _ in range(25):
        p = random_poly(S2, rng, 5)
        data = json.loads(json.dumps(poly_to_json(p)))
        assert decode_poly(data, S2) == p


def test_parse_then_serialize_roundtrip():
    p = parse_one("(t1*t2 + 2/3 - i)*t1", S2)
    assert decode_poly(poly_to_json(p), S2) == p


@settings(max_examples=30)
@given(st.integers(-5, 5), st.integers(1, 7), st.integers(-4, 4))
def test_coeff_rationals_roundtrip(num, den, im):
    p = NCPoly.scalar(S2, QQi(Fraction(num, den), Fraction(im, 3))) + T1
    assert decode_poly(poly_to_json(p), S2) == p


@pytest.mark.parametrize("make", [
    lambda: SemicircularModel(2),
    lambda: FreeProductModel([two_point_measure(), SemicircularModel(1)]),
])
def test_reported_xi_roundtrip(make):
    model = make()
    for rep in (irregularity_estimate(model, DegreeScheme(2)),
                irregularity_bounded(model, DegreeScheme(2), 0.5)):
        assert rep.xi and any(not p.is_zero for p in rep.xi)
        text = json.dumps(poly_tuple_to_json(rep.xi))
        assert tuple(decode_poly(d, model.system)
                     for d in json.loads(text)) == rep.xi


@pytest.mark.parametrize("make", [lambda: SemicircularModel(2),
                                  lambda: cyclic_group_model(5)],
                         ids=["semicircular n=2", "cyclic(5)"])
def test_models_and_reports_pickle(make):
    # every model holds exact QQi coefficients through its B algebra
    model = pickle.loads(pickle.dumps(make()))
    words = monomial_words(model.system, 0, 2)
    assert model.system == make().system
    assert np.array_equal(model.moment_table(words),
                          make().moment_table(words))
    rep = irregularity_estimate(make(), DegreeScheme(2))
    # pickled before and after its xi is built on read
    early = pickle.loads(pickle.dumps(rep))
    want = rep.to_json()
    late = pickle.loads(pickle.dumps(rep))
    assert early.to_json() == late.to_json() == want
    assert irregularity_estimate(model, DegreeScheme(2)).to_json() == want
