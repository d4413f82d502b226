import functools
import random

import mpmath
import pytest

from hilmod import cli
from hilmod.exactnum import Poly
from hilmod.modgrp import Mat2
from hilmod.numfield import NumberField
from refpoly import power_coords


@pytest.fixture(autouse=True)
def empty_process_tables():
    """Each test starts with no loaded field and no parsed literal kept, so
    none depends on what an earlier test left in the process tables."""
    cli._field_from_text.cache_clear()
    cli._element_from_text.cache_clear()


@pytest.fixture(scope="session")
def rationals():
    return NumberField.rationals()


@pytest.fixture(scope="session")
def sqrt2():
    return NumberField.quadratic(2)


@pytest.fixture(scope="session")
def sqrt3():
    return NumberField.quadratic(3)


@pytest.fixture(scope="session")
def sqrt5():
    return NumberField.quadratic(5)


@pytest.fixture(scope="session")
def cubic7():
    # minimal polynomial of 2cos(pi/7); the totally real cubic Q(cos(2*pi/7))
    return NumberField(Poly([1, -2, -1, 1]))


@functools.lru_cache(maxsize=None)
def _mp_roots(coeffs: tuple, dps: int) -> list:
    with mpmath.workdps(dps + 10):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(coeffs)],
                                 maxsteps=200, extraprec=4 * dps)
        return sorted(mpmath.re(r) for r in roots)


def embed_mp(x, i: int, dps: int):
    """sigma_i(x) to ``dps`` digits, with the embeddings taken from
    mpmath.polyroots of the minimal polynomial: an oracle independent of
    hilmod's root isolation."""
    theta = _mp_roots(x.field.min_poly.coeffs, dps)[i]
    with mpmath.workdps(dps + 10):
        return mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                               for c in reversed(power_coords(x))], theta)


def sample_sl2_words(field, rng: random.Random, count: int,
                     max_len: int = 6, max_height: int = 2) -> list[Mat2]:
    """Random words in the generators [[1,b],[0,1]] and [[0,-1],[1,0]];
    membership in SL_2(O_k) is guaranteed by construction."""
    one, zero = field.one(), field.zero()
    s = Mat2(zero, -one, one, zero)
    out = []
    for _ in range(count):
        m = Mat2.identity(field)
        for _ in range(rng.randint(1, max_len)):
            if rng.random() < 0.5:
                b = field.element([rng.randint(-max_height, max_height)
                                   for _ in range(field.degree)])
                m = m * Mat2(one, b, zero, one)
            else:
                m = m * s
        out.append(m)
    return out


@pytest.fixture(scope="session")
def word_sampler():
    return sample_sl2_words
