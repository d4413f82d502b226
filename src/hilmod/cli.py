"""Command-line front end.

Subcommands: field-info, classify, normalizer, torsion-search, wh-decomp,
ktop.  All machine output is deterministic JSON on stdout (sorted keys, no
timestamps); diagnostics go to stderr.  Exit codes: 0 success, 2 invalid
input, 3 matrix not in SL_2(O_k), 4 bounded search inconclusive.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .classify import classification_json, default_order_bound
from .modgrp import Mat2, NotUnimodular, psl_normalize, torsion_orders
from .normalizer import normalizer_json
from .numfield import FieldElement, NumberField
from .ktheory import Census, RingProps, wh_decomposition_psl, wh_decomposition_sl
from .topk import BettiProfile, FiniteCensus, ktop_json

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_SL2 = 3
EXIT_INCONCLUSIVE = 4


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CliError(RuntimeError):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- element and matrix literals ----------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<rat>\d+(?:/\d+)?)|(?P<star>\*)"
                    r"|(?P<gen>g)(?:\^(?P<exp>\d+))?)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            bad = text[pos:].lstrip()
            raise ParseError(f"unexpected character {bad[:1]!r}",
                             len(text) - len(bad))
        for kind in ("sign", "rat", "star", "gen"):
            if m.group(kind):
                value = m.group("exp") or "1" if kind == "gen" else m.group(kind)
                out.append((kind, value, m.start(kind)))
                break
        pos = m.end()
    return out


def parse_element(text: str, field: NumberField) -> FieldElement:
    """Parse "c0 + c1*g + c2*g^2 + ..." into an exact field element.

    Terms are rational ('1', '1/2'), generator powers ('g', 'g^3'), or
    products of the two; '*' is optional.  Powers beyond the field degree
    are reduced by square-and-multiply in the field, so a large exponent
    costs about log2(e) products.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element literal", 0)
    power: dict[int, Fraction] = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ParseError("trailing operator", tokens[-1][2])
        kind, value, pos = tokens[i]
        coeff = Fraction(1)
        exp = 0
        if kind == "rat":
            try:
                coeff = Fraction(value)
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
            i += 1
            if i < len(tokens) and tokens[i][0] == "star":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "gen":
                    raise ParseError("'*' must be followed by the generator", pos)
            if i < len(tokens) and tokens[i][0] == "gen":
                exp = int(tokens[i][1])
                i += 1
        elif kind == "gen":
            exp = int(value)
            i += 1
        else:
            raise ParseError(f"unexpected {value!r}", pos)
        power[exp] = power.get(exp, Fraction(0)) + sign * coeff
        if i < len(tokens) and tokens[i][0] not in ("sign",):
            raise ParseError("terms must be separated by '+' or '-'", tokens[i][2])
    n = field.degree
    x = field.from_power([power.get(e, Fraction(0)) for e in range(n)])
    for e, c in power.items():
        if e >= n:
            x = x + field.generator() ** e * c
    return x


def render_element(x: FieldElement) -> str:
    """Inverse of parse_element on the power basis."""
    parts = []
    for i, c in enumerate(x.power_coords()):
        if c == 0:
            continue
        mag = str(abs(c))
        if i == 0:
            body = mag
        else:
            gen = "g" if i == 1 else f"g^{i}"
            body = gen if abs(c) == 1 else f"{mag}*{gen}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for s, body in parts[1:]:
        out += s + body
    return out


def parse_matrix(text: str, field: NumberField) -> Mat2:
    entries = text.split(";")
    if len(entries) != 4:
        raise ParseError(f"expected 4 entries separated by ';', got {len(entries)}", 0)
    return Mat2(*(parse_element(e, field) for e in entries))


# -- input loading -------------------------------------------------------


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_INVALID, f"cannot read {path}: {exc}")


def _load_field(path: str) -> NumberField:
    try:
        return NumberField.from_json(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_INVALID, f"bad field spec: {exc}")


def _load_psl(args, field: NumberField):
    try:
        m = parse_matrix(args.matrix, field)
    except ParseError as exc:
        raise CliError(EXIT_INVALID, f"bad matrix literal: {exc}")
    try:
        return psl_normalize(m)
    except NotUnimodular as exc:
        raise CliError(EXIT_NOT_SL2, str(exc))


# -- output --------------------------------------------------------------


def _emit(payload: dict, fmt: str) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    if fmt == "human":
        for key in sorted(payload):
            print(f"{key}: {json.dumps(payload[key], sort_keys=True)}")
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


# -- subcommands ---------------------------------------------------------


def _cmd_field_info(args) -> int:
    field = _load_field(args.field)
    enclosures = []
    for i in range(field.degree):
        r = field.embedding(i, Fraction(1, 10 ** 6))
        enclosures.append([str(r.low), str(r.high)])
    _emit({
        "degree": field.degree,
        "min_poly": field.min_poly.to_json(),
        "integral_basis": [[str(x) for x in row] for row in field.integral_basis],
        "discriminant": str(field.discriminant()),
        "embeddings": enclosures,
    }, args.format)
    return EXIT_OK


def _cmd_classify(args) -> int:
    field = _load_field(args.field)
    a = _load_psl(args, field)
    _emit(classification_json(a), args.format)
    return EXIT_OK


def _cmd_normalizer(args) -> int:
    if args.height < 0:
        raise CliError(EXIT_INVALID, "height must be >= 0")
    field = _load_field(args.field)
    a = _load_psl(args, field)
    try:
        payload = normalizer_json(a, height_bound=args.height)
    except ValueError as exc:
        raise CliError(EXIT_INVALID, str(exc))
    _emit(payload, args.format)
    return EXIT_INCONCLUSIVE if payload["psl_type"] == "inconclusive" else EXIT_OK


def _cmd_torsion_search(args) -> int:
    field = _load_field(args.field)
    m_max = default_order_bound(field.degree) if args.max_order is None else args.max_order
    found = torsion_orders(field, m_max)  # ValueError (exit 2) when m_max < 1
    _emit({
        "m_max": m_max,
        "orders": [m for m, _ in found],
        "witnesses": {str(m): wit.to_json() for m, wit in found},
    }, args.format)
    return EXIT_OK


def _cmd_wh_decomp(args) -> int:
    try:
        census = Census.from_json(_load_json(args.census))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_INVALID, f"bad census spec: {exc}")
    props = RingProps(regular=args.regular,
                      nk_finite_exponent=args.nk_finite_exponent)
    fn = wh_decomposition_sl if args.sl else wh_decomposition_psl
    expr = fn(census, args.q, props)
    _emit({
        "group": "sl" if args.sl else "psl",
        "q": args.q,
        "expression": expr.to_json(),
        "notes": expr.notes,
    }, args.format)
    return EXIT_OK


def _cmd_ktop(args) -> int:
    field = _load_field(args.field)
    data = _load_json(args.cusp_dims) if args.cusp_dims else []
    try:
        cusp = tuple((e["p"], e["r"], e["dim"]) for e in data)
    except (KeyError, TypeError) as exc:
        raise CliError(EXIT_INVALID, f"bad cusp dims: {exc!r}")
    try:
        prof = BettiProfile(field.degree, args.class_number, cusp)
        fc = FiniteCensus.from_json(_load_json(args.finite_census)) \
            if args.finite_census else FiniteCensus()
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_INVALID, str(exc))
    payload = ktop_json(args.degree, prof, fc)
    if payload["cusp_defaulted"]:
        print("warning: cusp dimensions defaulted to 0; "
              "middle-degree rank is a lower bound only", file=sys.stderr)
    _emit(payload, args.format)
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hilmod")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, field=True):
        p.add_argument("--format", choices=("json", "human"), default="json")
        if field:
            p.add_argument("--field", required=True,
                           help="field spec JSON path, or - for stdin")

    p = sub.add_parser("field-info")
    common(p)
    p.set_defaults(fn=_cmd_field_info)

    p = sub.add_parser("classify")
    common(p)
    p.add_argument("--matrix", required=True, help='entries "a;b;c;d"')
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("normalizer")
    common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--height", type=int, default=5,
                   help="involution search height bound (default 5)")
    p.set_defaults(fn=_cmd_normalizer)

    p = sub.add_parser("torsion-search")
    common(p)
    p.add_argument("--max-order", type=int, default=None,
                   help="largest order to test (default: the phi bound)")
    p.set_defaults(fn=_cmd_torsion_search)

    p = sub.add_parser("wh-decomp")
    common(p, field=False)
    p.add_argument("--census", required=True, help="census JSON path")
    p.add_argument("--q", type=int, default=1, help="K-theory degree")
    p.add_argument("--sl", action="store_true",
                   help="decompose for SL_2(O_k) instead of PSL_2(O_k)")
    p.add_argument("--regular", action="store_true")
    p.add_argument("--nk-finite-exponent", action="store_true")
    p.set_defaults(fn=_cmd_wh_decomp)

    p = sub.add_parser("ktop")
    common(p)
    p.add_argument("--class-number", type=int, required=True)
    p.add_argument("--finite-census", default=None)
    p.add_argument("--cusp-dims", default=None)
    p.add_argument("--degree", type=int, default=0, help="K-theory degree q")
    p.set_defaults(fn=_cmd_ktop)
    return top


def _join_matrix_values(argv: list[str]) -> list[str]:
    """Rewrite "--matrix VALUE" as "--matrix=VALUE", so that argparse does
    not read a literal starting with '-' as an option."""
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--matrix" else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_matrix_values(argv))
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
