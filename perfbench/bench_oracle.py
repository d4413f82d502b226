"""Correctness oracles for the benchmark, independent of hilmod.

Field elements are lists of Fractions in the power basis of the defining
root theta; products are reduced modulo the monic minimal polynomial with
this module's own code.  Real embeddings come from ``mpmath.polyroots`` at
50 digits, never from hilmod's Sturm code.  Every ``check_*`` function
takes one CLI reply (exit code and stdout) and returns
``(ok, decided, why)``: ``ok`` is False when the reply disagrees with the
oracle, ``decided`` is False for an honest inconclusive verdict.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb, isqrt

import mpmath

DPS = 50
_EPS = mpmath.mpf(10) ** -30  # embedded values of these small words are far larger


def rat(s) -> Fraction:
    return Fraction(str(s))


def rational_sqrt(r: Fraction):
    """Exact square root of a rational, or None."""
    if r < 0:
        return None
    p, q = isqrt(r.numerator), isqrt(r.denominator)
    if p * p == r.numerator and q * q == r.denominator:
        return Fraction(p, q)
    return None


class OracleField:
    """A field spec (the JSON the CLI reads) with its own arithmetic."""

    def __init__(self, name: str, spec: dict):
        self.name = name
        self.min_poly = [rat(c) for c in spec["min_poly"]]  # ascending, monic
        self.n = n = len(self.min_poly) - 1
        basis = spec.get("integral_basis")
        self.basis = ([[rat(x) for x in row] for row in basis] if basis
                      else [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
        with mpmath.workdps(DPS):
            roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                      for c in reversed(self.min_poly)],
                                     maxsteps=200, extraprec=200)
            self.roots = sorted(mpmath.re(r) for r in roots)

    # -- elements ---------------------------------------------------------

    def const(self, c) -> list:
        return [Fraction(c)] + [Fraction(0)] * (self.n - 1)

    def add(self, a, b) -> list:
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b) -> list:
        return [x - y for x, y in zip(a, b)]

    def neg(self, a) -> list:
        return [-x for x in a]

    def mul(self, a, b) -> list:
        n = self.n
        out = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):  # theta^n = -sum c_i theta^i
            c = out[k]
            if c:
                for i in range(n):
                    out[k - n + i] -= c * self.min_poly[i]
        return out[:n]

    def from_basis(self, coords) -> list:
        """Integral-basis coordinates to the power basis."""
        out = [Fraction(0)] * self.n
        for c, row in zip(coords, self.basis):
            out = [o + c * r for o, r in zip(out, row)]
        return out

    def is_integral(self, coords) -> bool:
        return all(c.denominator == 1 for c in coords)

    def embed(self, a, i):
        with mpmath.workdps(DPS):
            x = self.roots[i]
            return mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                                   for c in reversed(a)], x)

    def signs(self, a) -> list[int]:
        """Signs of all embeddings; 0 only for the zero element."""
        if not any(a):
            return [0] * self.n
        out = []
        for i in range(self.n):
            v = self.embed(a, i)
            if abs(v) < _EPS:
                raise ArithmeticError("embedding too close to 0 to decide at 50 digits")
            out.append(1 if v > 0 else -1)
        return out

    def norm(self, a) -> Fraction:
        """Exact norm: determinant of multiplication by a on the power basis."""
        n = self.n
        cols, e = [], self.const(1)
        theta = [Fraction(int(i == 1)) for i in range(n)] if n > 1 else [Fraction(0)]
        for _ in range(n):
            cols.append(self.mul(a, e))
            e = self.mul(e, theta)
        m = [[cols[j][i] for j in range(n)] for i in range(n)]
        det = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return det

    def is_square(self, a) -> bool:
        """Whether a is a square in k, for a totally nonnegative a.

        Quadratic fields: closed form.  a = u + v*theta with theta^2 = d is
        a square iff N(a) = s^2 and (u + s)/2 or (u - s)/2 is the square of
        a nonzero rational (or v = 0 and u or u/d is a rational square).
        The cubic x^3 - x^2 - 2x + 1 has discriminant 49, the field
        discriminant, so its maximal order is Z[theta]: an integral a has a
        square root in Z[theta] iff one sign pattern of the embedded square
        roots rounds to integer power coordinates that square to a exactly;
        sign and norm conditions are checked first.
        """
        if not any(a):
            return True
        if self.n == 1:
            return rational_sqrt(a[0]) is not None
        if self.n == 2 and self.min_poly[1] == 0:
            d = -self.min_poly[0]
            u, v = a
            if v == 0:
                return rational_sqrt(u) is not None or rational_sqrt(u / d) is not None
            s = rational_sqrt(u * u - d * v * v)
            return s is not None and any(
                w > 0 and rational_sqrt(w) is not None for w in ((u + s) / 2, (u - s) / 2))
        if self.min_poly != [1, -2, -1, 1]:
            raise ValueError(f"no square oracle for {self.name}")
        if min(self.signs(a)) < 0 or rational_sqrt(self.norm(a)) is None:
            return False
        if not self.is_integral(a):
            raise ValueError("the cubic square oracle needs an integral element")
        with mpmath.workdps(DPS):
            vander = mpmath.matrix([[r ** j for j in range(3)] for r in self.roots])
            roots = [mpmath.sqrt(self.embed(a, i)) for i in range(3)]
            for pattern in itertools.product((1, -1), repeat=2):
                target = mpmath.matrix([roots[0]] + [s * r for s, r in zip(pattern, roots[1:])])
                y = [Fraction(int(mpmath.nint(c))) for c in mpmath.lu_solve(vander, target)]
                if self.mul(y, y) == a:
                    return True
        return False


# -- 2x2 matrices: (a, b, c, d) tuples of power-basis elements ------------


def mat_mul(f: OracleField, x, y):
    a, b, c, d = x
    e, g, h, k = y
    m = f.mul
    return (f.add(m(a, e), m(b, h)), f.add(m(a, g), m(b, k)),
            f.add(m(c, e), m(d, h)), f.add(m(c, g), m(d, k)))


def mat_identity(f: OracleField):
    one, zero = f.const(1), f.const(0)
    return (one, zero, zero, one)


def mat_neg(f: OracleField, x):
    return tuple(f.neg(e) for e in x)


def mat_adj(f: OracleField, x):
    """Adjugate; the inverse of a determinant-1 matrix."""
    a, b, c, d = x
    return (d, f.neg(b), f.neg(c), a)


def mat_det(f: OracleField, x):
    a, b, c, d = x
    return f.sub(f.mul(a, d), f.mul(b, c))


def mat_trace(f: OracleField, x):
    return f.add(x[0], x[3])


def render(p) -> str:
    """Element literal in the CLI grammar: c0+c1*g+c2*g^2."""
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        body = str(abs(c)) if i == 0 else f"{abs(c)}*g" + (f"^{i}" if i > 1 else "")
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts) or "0"
    return text[1:] if text[0] == "+" else text


def render_matrix(x) -> str:
    return ";".join(render(e) for e in x)


def _matrix_from_json(f: OracleField, data):
    (a, b), (c, d) = data
    coords = [[rat(v) for v in e] for e in (a, b, c, d)]
    return coords, tuple(f.from_basis(e) for e in coords)


# -- expected classification ----------------------------------------------


def expected_class(f: OracleField, m) -> dict:
    """Classification facts of the PSL class of m from its own arithmetic.

    ``path`` names the route the library's square test is expected to take
    (used to keep the query mix fixed across seeds)."""
    ident = mat_identity(f)
    if m == ident or m == mat_neg(f, ident):
        return {"class": "identity", "path": "identity"}
    t = mat_trace(f, m)
    disc = f.sub(f.mul(t, t), f.const(4))
    signs = f.signs(disc)
    types = ["elliptic" if s < 0 else "parabolic" if s == 0 else "hyperbolic"
             for s in signs]
    out = {"per_embedding": types, "trace": t, "disc": disc}
    if all(s == 0 for s in signs):
        out.update({"class": "totally_parabolic", "disc_square_in_k": True,
                    "path": "parabolic"})
    elif all(s < 0 for s in signs):
        out.update({"class": "totally_elliptic", "disc_square_in_k": False,
                    "order": _psl_order(f, m), "path": "elliptic"})
    elif all(s > 0 for s in signs):
        square = f.is_square(disc)
        if square:
            path = "hyperbolic_square"
        elif rational_sqrt(f.norm(disc)) is None:
            path = "hyperbolic_norm_obstructed"
        else:
            path = "hyperbolic_unobstructed"
        out.update({"class": "totally_hyperbolic", "disc_square_in_k": square,
                    "hyperbolic_parabolic": square, "path": path})
    else:
        out.update({"class": "mixed", "disc_square_in_k": False,
                    "hyperbolic_components": types.count("hyperbolic"), "path": "mixed"})
    return out


def _psl_order(f: OracleField, m, bound: int = 64):
    ident, neg = mat_identity(f), mat_neg(f, mat_identity(f))
    acc = m
    for e in range(1, bound + 1):
        if acc == ident or acc == neg:
            return e
        acc = mat_mul(f, acc, m)
    return None


# -- checks of CLI replies --------------------------------------------------


def _load(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_classify(f: OracleField, m, code: int, out: str):
    want = expected_class(f, m)
    got = _load(out)
    if code != 0 or got is None:
        return False, False, f"exit {code}"
    if got["class"] != want["class"]:
        return False, True, f"class {got['class']} != {want['class']}"
    if want["class"] == "identity":
        return True, True, ""
    if got["per_embedding"] != want["per_embedding"]:
        return False, True, f"per_embedding {got['per_embedding']}"
    trace = f.from_basis([rat(c) for c in got["trace"]])
    if trace not in (want["trace"], f.neg(want["trace"])):
        return False, True, "trace"
    if got["disc_square_in_k"] == "inconclusive":
        return True, False, ""
    if got["disc_square_in_k"] is not want["disc_square_in_k"]:
        return False, True, f"disc_square_in_k {got['disc_square_in_k']}"
    for key in ("order", "hyperbolic_components", "hyperbolic_parabolic"):
        if key in want and got.get(key) != want[key]:
            return False, True, f"{key} {got.get(key)} != {want[key]}"
    return True, True, ""


def check_field_info(f: OracleField, code: int, out: str):
    got = _load(out)
    if code != 0 or got is None:
        return False, False, f"exit {code}"
    if got["degree"] != f.n or [rat(c) for c in got["min_poly"]] != f.min_poly:
        return False, True, "degree or min_poly"
    if [[rat(x) for x in row] for row in got["integral_basis"]] != f.basis:
        return False, True, "integral_basis"
    with mpmath.workdps(DPS):
        disc = mpmath.mpf(1)
        for i, j in itertools.combinations(range(f.n), 2):
            disc *= (f.roots[i] - f.roots[j]) ** 2
        if rat(got["discriminant"]) != int(mpmath.nint(disc)):
            return False, True, "discriminant"
        for (lo, hi), r in zip(got["embeddings"], f.roots):
            lo, hi = rat(lo), rat(hi)
            if not (hi - lo <= Fraction(1, 10 ** 6)
                    and mpmath.mpf(lo.numerator) / lo.denominator <= r
                    <= mpmath.mpf(hi.numerator) / hi.denominator):
                return False, True, "embedding enclosure"
    return True, True, ""


KNOWN_TORSION_ORDERS = {  # orders m <= 12 of elements of SL_2(O_k)
    "sqrt5": [1, 2, 3, 4, 5, 6, 10],
    "cubic": [1, 2, 3, 4, 6, 7],
}


def check_torsion(f: OracleField, m_max: int, code: int, out: str):
    got = _load(out)
    if code != 0 or got is None:
        return False, False, f"exit {code}"
    want = [m for m in KNOWN_TORSION_ORDERS[f.name] if m <= m_max]
    if got["m_max"] != m_max or got["orders"] != want:
        return False, True, f"orders {got['orders']}"
    if sorted(got["witnesses"], key=int) != [str(m) for m in want]:
        return False, True, "witness keys"
    ident = mat_identity(f)
    for key, data in got["witnesses"].items():
        coords, w = _matrix_from_json(f, data)
        if not all(f.is_integral(c) for c in coords) or mat_det(f, w) != f.const(1):
            return False, True, f"witness {key} not in SL_2(O_k)"
        acc = w
        for e in range(1, int(key)):
            if acc == ident:
                return False, True, f"witness {key} has order {e}"
            acc = mat_mul(f, acc, w)
        if acc != ident:
            return False, True, f"witness {key} does not have order {key}"
    return True, True, ""


def check_normalizer(f: OracleField, m, height: int, witness_expected: bool,
                     code: int, out: str):
    """Exhausting searches must end inconclusive with exit 4; a found
    involution beta must satisfy beta^2 = -I and beta m beta^-1 = +-m^-1."""
    got = _load(out)
    if got is None:
        return False, False, f"exit {code}"
    want = expected_class(f, m)
    if want["class"] == "mixed":
        rank = want["hyperbolic_components"]
    elif want["class"] == "totally_hyperbolic":
        rank = f.n - 1 if want["hyperbolic_parabolic"] else f.n
    else:
        raise ValueError("normalizer queries use infinite-order hyperbolic or mixed elements")
    if got["rank"] != rank:
        return False, True, f"rank {got['rank']} != {rank}"
    if not witness_expected:
        ok = (code == 4 and got["psl_type"] == got["sl_type"] == "inconclusive"
              and got["census_slot"] == "undetermined" and got["witness_involution"] is None)
        return ok, False, "" if ok else f"exit {code}, {got['psl_type']}"
    if code != 0 or got["psl_type"] != "semidirect_z2" or got["sl_type"] != "semidirect_z4":
        return False, True, f"exit {code}, {got['psl_type']}"
    slot = ("HP2" if want.get("hyperbolic_parabolic") else "H2") \
        if want["class"] == "totally_hyperbolic" else f"M2{{{rank}}}"
    if got["census_slot"] != slot:
        return False, True, f"census_slot {got['census_slot']} != {slot}"
    coords, beta = _matrix_from_json(f, got["witness_involution"])
    if not all(f.is_integral(c) and max(abs(x) for x in c) <= height for c in coords):
        return False, True, "witness not integral or above the height bound"
    if mat_det(f, beta) != f.const(1):
        return False, True, "witness determinant"
    if mat_mul(f, beta, beta) != mat_neg(f, mat_identity(f)):
        return False, True, "witness is not an involution in PSL"
    conj = mat_mul(f, mat_mul(f, beta, m), mat_adj(f, beta))
    inv = mat_adj(f, m)
    if conj not in (inv, mat_neg(f, inv)):
        return False, True, "witness does not conjugate m to its inverse"
    return True, True, ""


def _nk_totals(census: dict) -> tuple[int, int]:
    """Closed forms for the Nil blocks of a census with finite counts: the
    total NK multiplicity (Pascal row sums 2^(s+1) for a two-copy block,
    2^s for a one-copy block, s = rank - 1) and the top-degree multiplicity
    (2 per two-copy block, 1 per one-copy block)."""
    n = census["n"]
    cnt = {k: census.get(k, {"finite": 0})["finite"] for k in ("p", "h1", "h2", "hp1", "hp2")}
    m1 = [c["finite"] for c in census.get("m1", [])]
    m2 = [c["finite"] for c in census.get("m2", [])]
    total = ((cnt["p"] + cnt["h1"]) * 2 ** n + (cnt["h2"] + cnt["hp1"]) * 2 ** (n - 1)
             + cnt["hp2"] * 2 ** (n - 2)
             + sum(c * 2 ** j for j, c in enumerate(m1, 1))
             + sum(c * 2 ** (j - 1) for j, c in enumerate(m2, 1)))
    top = (2 * (cnt["p"] + cnt["h1"] + cnt["hp1"] + sum(m1))
           + cnt["h2"] + cnt["hp2"] + sum(m2))
    return total, top


def check_wh(census: dict, q: int, sl: bool, regular: bool, code: int, out: str):
    got = _load(out)
    if code != 0 or got is None:
        return False, False, f"exit {code}"
    if got["group"] != ("sl" if sl else "psl") or got["q"] != q:
        return False, True, "group or q"
    ring = "base_c2" if sl else "base"
    n = census["n"]
    nk_total = nk_top = 0
    wh, opaque = {}, 0
    for entry in got["expression"]:
        term, mult = entry["term"], entry["multiplicity"]["finite"]
        if term["kind"] == "nk":
            if term["ring"] != ring or not q - n + 1 <= term["degree"] <= q:
                return False, True, f"NK term {term}"
            nk_total += mult
            nk_top += mult if term["degree"] == q else 0
        elif term["kind"] == "wh":
            wh[term["group_order"]] = mult
        elif term["kind"] == "opaque":
            opaque += mult
        else:
            return False, True, f"unexpected term {term}"
    want_total, want_top = (0, 0) if regular else _nk_totals(census)
    if (nk_total, nk_top) != (want_total, want_top):
        return False, True, f"NK multiplicities {nk_total}/{nk_top} != {want_total}/{want_top}"
    want_wh = {} if sl else {e["order"]: e["count"]["finite"]
                             for e in census.get("finite", []) if e["count"]["finite"]}
    if wh != want_wh or opaque != (1 if sl else 0):
        return False, True, "Wh or opaque terms"
    return True, True, ""


def ktop_rank(n: int, h: int, q: int, finite: list) -> int:
    """Rank of K_q^top with cusp dimensions defaulted to 0, by the
    closed-form parity sums of the Betti numbers (n >= 2): the universal
    classes sum to 2^n - 1 in even degree, the Eisenstein classes to
    h*2^(n-2) in even and h*2^(n-2) - 1 in odd degree."""
    if q % 2 == 0:
        return 2 ** n - 1 + h * 2 ** (n - 2) + sum(e["count"] * (e["order"] - 1) for e in finite)
    return h * 2 ** (n - 2) - 1


def check_ktop(n: int, h: int, q: int, finite: list, code: int, out: str):
    got = _load(out)
    if code != 0 or got is None:
        return False, False, f"exit {code}"
    want = ktop_rank(n, h, q, finite)
    if got["rank"] != want or got["q_mod_2"] != q % 2 or got["cusp_defaulted"] != (n % 2 == q % 2):
        return False, True, f"rank {got['rank']} != {want}"
    return True, True, ""
