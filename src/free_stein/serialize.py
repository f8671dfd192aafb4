"""JSON text forms for polynomials and polynomial tuples.

Words are arrays of letter tags (``["t", 1]`` for the first indeterminate,
``["b", k]`` for the k-th B-basis slot); coefficients are pairs of rational
strings.  Round-trips are bit-exact because every component is an integer
ratio.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructureError
from .ncalg import GeneratorSystem, NCPoly, _collect
from .scalars import QQi


def coeff_to_json(c: QQi):
    return [str(c.re), str(c.im)]


def coeff_from_json(data) -> QQi:
    re, im = data
    return QQi(Fraction(str(re)), Fraction(str(im)))


def word_to_json(word):
    out = []
    for pos, v in enumerate(word):
        if pos % 2 == 1:
            out.append(["t", v + 1])  # letters are 1-based in the text form
        else:
            out.append(["b", v])
    return out


def word_from_json(data, system: GeneratorSystem):
    word = []
    for pos, tag in enumerate(data):
        kind, idx = tag
        if pos % 2 == 1:
            if kind != "t":
                raise StructureError(f"expected a letter tag at position {pos}")
            word.append(int(idx) - 1)
        else:
            if kind != "b":
                raise StructureError(f"expected a B tag at position {pos}")
            word.append(int(idx))
    w = tuple(word)
    system.check_word(w)
    return w


def poly_to_json(p: NCPoly):
    return {
        "n": p.system.n,
        "b_dim": p.system.b.dim,
        "terms": [{"word": word_to_json(w), "coeff": coeff_to_json(c)}
                  for w, c in p.sorted_terms()],
    }


def poly_from_json(data, system: GeneratorSystem) -> NCPoly:
    if data.get("n") != system.n or data.get("b_dim") != system.b.dim:
        raise StructureError("serialized polynomial does not match the generator system")
    return NCPoly(system, _collect((word_from_json(item["word"], system),
                                    coeff_from_json(item["coeff"]))
                                   for item in data["terms"]))


def poly_tuple_to_json(polys):
    return [poly_to_json(p) for p in polys]


def poly_tuple_from_json(data, system) -> tuple:
    return tuple(poly_from_json(d, system) for d in data)
