"""Scale record of the Gram path: one case per process, stage times and peak
memory, as one JSON line.

The benchmark workloads never build a Gram system above m = 363 words, where
fixed costs dominate; these three cases, all at cap 14, show where the time
and memory go at scale:

* ``a``: semicircular n=3 at d_xi 4 (m = 3 279), sigma = 3;
* ``b``: two-point * semicircular * cyclic(3) at d_xi 3 (m = 5 460),
  sigma = 1/2 + 1 + 2/3 by free additivity;
* ``c``: ``cyclic_group_model(5)`` at d_xi 4 (m = 254), sigma = 4/5.

Each run builds the model afresh and times ``irregularity_estimate``: the
first run is cold (the per-shape layouts and split pairs are built), the
others warm.  Case ``b`` runs once, cold.  Stage times are summed over the
calls of each wrapped function within a run; ``numpy.linalg.eigh`` is also
inside ``GramSystem.view``.  The stage ``xi`` is the first read of the
report's ``xi``, which assembles it after the estimate; ``wall_s`` is the
estimate alone.  ``ru_maxrss_mb`` is the peak of the whole
process, so run each case in a fresh one::

    OPENBLAS_NUM_THREADS=1 python3 tools/scale_record.py a --warm 3
    OPENBLAS_NUM_THREADS=1 python3 tools/scale_record.py a --src OTHER/src

``--src`` imports the program from another checkout, to record a parent
commit next to a change.
"""

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

CASES = {
    "a": ("semicircular n=3, d_xi 4", 4, Fraction(3)),
    "b": ("two-point * semicircular * cyclic(3), d_xi 3", 3,
          Fraction(1, 2) + 1 + Fraction(2, 3)),
    "c": ("cyclic_group_model(5), d_xi 4", 4, Fraction(4, 5)),
}
STAGES = [
    ("GramSystem", "__init__", "GramSystem.__init__"),
    ("GramSystem", "view", "GramSystem.view"),
    ("GramSystem", "r_of_candidates", "GramSystem.r_of_candidates"),
    ("_GramView", "z", "_GramView.z"),
    ("linalg", "eigh", "numpy.linalg.eigh"),
    ("linalg", "lstsq", "numpy.linalg.lstsq"),
]


def model_of(case, trace):
    if case == "a":
        return trace.SemicircularModel(3, cap=14)
    if case == "b":
        return trace.FreeProductModel(
            [trace.two_point_measure(cap=14), trace.SemicircularModel(1, cap=14),
             trace.cyclic_group_model(3, cap=14)], cap=14)
    return trace.cyclic_group_model(5, cap=14)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("--warm", type=int, default=3,
                        help="warm runs after the cold one (case b: none)")
    parser.add_argument("--src", default=str(Path(__file__).parents[1] / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np
    from free_stein import stein, trace

    times, calls = defaultdict(float), defaultdict(int)
    owners = {"GramSystem": stein.GramSystem, "_GramView": stein._GramView,
              "linalg": np.linalg}
    for owner, attr, name in STAGES:
        raw = getattr(owners[owner], attr)

        def timed(*a, raw=raw, name=name, **k):
            start = time.perf_counter()
            try:
                return raw(*a, **k)
            finally:
                times[name] += time.perf_counter() - start
                calls[name] += 1
        setattr(owners[owner], attr, timed)

    label, d_xi, want = CASES[args.case]
    runs = []
    for _ in range(1 + (0 if args.case == "b" else args.warm)):
        times.clear()
        calls.clear()
        start = time.perf_counter()
        rep = stein.irregularity_estimate(model_of(args.case, trace),
                                          stein.DegreeScheme(d_xi))
        wall = time.perf_counter() - start
        start = time.perf_counter()
        rep.xi  # the first read assembles it
        times["xi"] = time.perf_counter() - start
        runs.append({"wall_s": wall,
                     "stages_s": dict(times), "calls": dict(calls),
                     "sigma": repr(rep.sigma)})
        if abs(rep.sigma - float(want)) > 1e-9:
            raise SystemExit(f"case {args.case}: sigma {rep.sigma!r}, "
                             f"not {want} within 1e-9")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"case": args.case, "label": label, "cold": runs[0],
                      "warm": runs[1:], "ru_maxrss_mb": peak}))


if __name__ == "__main__":
    main()
