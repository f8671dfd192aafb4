"""JSON text forms for polynomials and polynomial tuples.

Words are arrays of letter tags (``["t", 1]`` for the first indeterminate,
``["b", k]`` for the k-th B-basis slot); coefficients are pairs of rational
strings, so each component is written exactly as an integer ratio.
"""

from __future__ import annotations

from .ncalg import NCPoly
from .scalars import QQi


def coeff_to_json(c: QQi):
    return [str(c.re), str(c.im)]


def word_to_json(word):
    out = []
    for pos, v in enumerate(word):
        if pos % 2 == 1:
            out.append(["t", v + 1])  # letters are 1-based in the text form
        else:
            out.append(["b", v])
    return out


def poly_to_json(p: NCPoly):
    return {
        "n": p.system.n,
        "b_dim": p.system.b.dim,
        "terms": [{"word": word_to_json(w), "coeff": coeff_to_json(c)}
                  for w, c in p.sorted_terms()],
    }


def poly_tuple_to_json(polys):
    return [poly_to_json(p) for p in polys]
