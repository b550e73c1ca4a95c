"""Shared helpers: seeded random generators for algebra objects."""

import random
from fractions import Fraction

from warpconv.coords import CoordFunction
from warpconv.operators import OperatorExpr
from warpconv.scalars import QC

MONO_POOL = (
    (),
    (("e", 1),),
    (("m", -1),),
    (("B", 1),),
    (("e", 1), ("m", -1)),
)


def rand_qc(rng: random.Random) -> QC:
    re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 \
        else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    return QC(re, im)


def rand_coord(rng: random.Random, max_terms: int = 2,
               fractional: bool = False) -> CoordFunction:
    out = CoordFunction.zero()
    for _ in range(rng.randint(1, max_terms)):
        a = tuple(rng.randint(0, 2) for _ in range(3))
        p = Fraction(rng.choice((-3, -2, -1, 0, 0, 1, 2)))
        q = Fraction(rng.choice((-2, 0, 0, 0, 2)))
        if fractional and rng.random() < 0.3:
            p = p + Fraction(1, 2)
        mono = rng.choice(MONO_POOL)
        out = out + CoordFunction({(a, p, q, mono): rand_qc(rng)})
    return out


def rand_expr(rng: random.Random, max_terms: int = 2,
              max_degree: int = 2) -> OperatorExpr:
    out = OperatorExpr.zero()
    for _ in range(rng.randint(1, max_terms)):
        pm = [0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            pm[rng.randint(0, 2)] += 1
        out = out + OperatorExpr({tuple(pm): rand_coord(rng)})
    return out
