"""Seeded query sets of the three workloads.

A query is the argv list handed to ``hilmod.cli.main``, an optional text
piped to it on stdin, and the oracle check its reply must pass.  Matrix
literals are passed as ``--matrix=<lit>``: argparse reads a separate
value starting with '-' (``--matrix -1;...``) as an option and exits 2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import bench_oracle as oracle

DATA = Path(__file__).resolve().parent / "data"
FIELD_NAMES = ("sqrt2", "sqrt5", "cubic")

# Classify queries per field, by the path the square test of Tr^2 - 4
# takes.  Counts are the natural frequencies of the random words below
# (measured on 6000 words per field), fixed so that the mix, and so the
# cost of a pass, is the same for every seed.  hyperbolic_unobstructed
# (totally positive with a square norm but not a square) is the slow
# path that ends in the exact factorization fallback; its 16 queries set
# latency_p99_ms.
CLASSIFY_MIX = {
    "sqrt2": {"identity": 21, "parabolic": 113, "elliptic": 54, "mixed": 68,
              "hyperbolic_square": 8, "hyperbolic_norm_obstructed": 23,
              "hyperbolic_unobstructed": 13},
    "sqrt5": {"identity": 21, "parabolic": 113, "elliptic": 61, "mixed": 68,
              "hyperbolic_square": 9, "hyperbolic_norm_obstructed": 25,
              "hyperbolic_unobstructed": 3},
    "cubic": {"identity": 17, "parabolic": 108, "elliptic": 37, "mixed": 101,
              "hyperbolic_square": 5, "hyperbolic_norm_obstructed": 32,
              "hyperbolic_unobstructed": 0},
}
OTHER_MIX = {"field-info": 25, "wh-decomp-psl": 25, "wh-decomp-sl": 25, "ktop": 25}
MAX_DRAWS = 50_000  # per field; the rarest bin needs about 400 draws


@dataclass
class Query:
    argv: list
    check: Callable[[int, str], tuple]  # (exit code, stdout) -> (ok, decided, why)
    stdin: Optional[str] = None

    def job(self) -> dict:
        return {"argv": self.argv, "stdin": self.stdin}


def field_spec(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def field_path(name: str) -> str:
    return str(DATA / f"{name}.json")


def oracle_fields(names=FIELD_NAMES) -> dict:
    return {name: oracle.OracleField(name, field_spec(name)) for name in names}


def random_word(f: oracle.OracleField, rng: random.Random, max_len=6, max_height=2):
    """A product of 1..max_len generators [[1,b],[0,1]] (b of integral-basis
    height <= max_height) and [[0,-1],[1,0]]; in SL_2(O_k) by construction."""
    one, zero = f.const(1), f.const(0)
    s = (zero, f.neg(one), one, zero)
    m = oracle.mat_identity(f)
    for _ in range(rng.randint(1, max_len)):
        if rng.random() < 0.5:
            b = f.from_basis([Fraction(rng.randint(-max_height, max_height))
                              for _ in range(f.n)])
            m = oracle.mat_mul(f, m, (one, b, zero, one))
        else:
            m = oracle.mat_mul(f, m, s)
    return m


def classify_query(f: oracle.OracleField, m) -> Query:
    return Query(["classify", "--field", field_path(f.name),
                  f"--matrix={oracle.render_matrix(m)}"],
                 partial(oracle.check_classify, f, m))


def _classify_queries(f: oracle.OracleField, rng: random.Random) -> list[Query]:
    left = dict(CLASSIFY_MIX[f.name])
    out = []
    for _ in range(MAX_DRAWS):
        if not any(left.values()):
            return out
        m = random_word(f, rng)
        path = oracle.expected_class(f, m)["path"]
        if left[path]:
            left[path] -= 1
            out.append(classify_query(f, m))
    raise RuntimeError(f"could not fill the classify mix for {f.name}: {left}")


def _random_census(rng: random.Random) -> dict:
    n = rng.choice((2, 3))
    card = lambda: {"finite": rng.randint(0, 3)}  # noqa: E731
    orders = rng.sample((2, 3, 4, 6), rng.randint(0, 3))
    census = {"n": n, "finite": [{"order": o, "count": card()} for o in sorted(orders)]}
    for key in ("p", "h1", "h2", "hp1", "hp2"):
        census[key] = card()
    census["m1"] = [card() for _ in range(n - 1)]
    census["m2"] = [card() for _ in range(n - 1)]
    return census


def _other_query(kind: str, fields: dict, rng: random.Random) -> Query:
    if kind == "field-info":
        f = fields[rng.choice(FIELD_NAMES)]
        return Query(["field-info", "--field", field_path(f.name)],
                     partial(oracle.check_field_info, f))
    if kind.startswith("wh-decomp"):
        census, q = _random_census(rng), rng.randint(0, 3)
        sl, regular = kind.endswith("-sl"), rng.random() < 0.25
        argv = ["wh-decomp", "--census", "-", "--q", str(q)]
        argv += ["--sl"] * sl + ["--regular"] * regular
        return Query(argv, partial(oracle.check_wh, census, q, sl, regular),
                     json.dumps(census))
    f = fields[rng.choice(FIELD_NAMES)]
    h, q = rng.randint(1, 3), rng.randint(0, 3)
    finite = [{"order": o, "count": rng.randint(0, 3)}
              for o in sorted(rng.sample(range(2, 7), rng.randint(0, 3)))]
    argv = ["ktop", "--field", field_path(f.name), "--class-number", str(h),
            "--finite-census", "-", "--degree", str(q)]
    return Query(argv, partial(oracle.check_ktop, f.n, h, q, finite), json.dumps(finite))


def cli_session(seed: int) -> list[Query]:
    """1000 short queries: 900 classify on random words over the three
    fields, 100 field-info / wh-decomp (psl and --sl) / ktop."""
    rng = random.Random(seed)
    fields = oracle_fields()
    queries = [q for f in fields.values() for q in _classify_queries(f, rng)]
    for kind, count in OTHER_MIX.items():
        queries += [_other_query(kind, fields, rng) for _ in range(count)]
    rng.shuffle(queries)
    return queries


def torsion_census(seed: int) -> list[Query]:
    fields = oracle_fields(("sqrt5", "cubic"))
    queries = [Query(["torsion-search", "--field", field_path(name), "--max-order", "12"],
                     partial(oracle.check_torsion, f, 12))
               for name, f in fields.items()]
    random.Random(seed).shuffle(queries)
    return queries


# (field, matrix literal, --height, witness expected)
INVOLUTION_CASES = [
    ("sqrt2", "1+1g;1+1g;2;1+1g", 1, False),
    ("sqrt2", "1+1g;1+1g;2;1+1g", 2, False),
    ("sqrt2", "1+1g;1+1g;2;1+1g", 3, False),
    ("cubic", "0;1;-1;2*g-2*g^2", 1, False),
    ("sqrt2", "1+1g;0;0;-1+1g", 2, True),
    ("sqrt5", "0;1;-1;3", 2, True),
]


def parse_power_literal(text: str, n: int) -> list:
    """Power coordinates of the small literals in INVOLUTION_CASES
    (integer terms c, c*g, c*g^k or cg)."""
    out = [Fraction(0)] * n
    for term in text.replace("-", "+-").split("+"):
        if not term:
            continue
        coeff, gen, power = term.replace("*", "").partition("g")
        exp = int(power.lstrip("^") or 1) if gen else 0
        out[exp] += Fraction(int(coeff) if coeff not in ("", "-") else int(coeff + "1"))
    return out


def involution_search(seed: int) -> list[Query]:
    fields = oracle_fields()
    queries = []
    for name, literal, height, witness in INVOLUTION_CASES:
        f = fields[name]
        m = tuple(parse_power_literal(e, f.n) for e in literal.split(";"))
        queries.append(Query(["normalizer", "--field", field_path(name),
                              f"--matrix={literal}", "--height", str(height)],
                             partial(oracle.check_normalizer, f, m, height, witness)))
    random.Random(seed).shuffle(queries)
    return queries


WORKLOADS = {
    "cli-session": (cli_session, FIELD_NAMES),
    "torsion-census": (torsion_census, ("sqrt5", "cubic")),
    "involution-search": (involution_search, FIELD_NAMES),
}
