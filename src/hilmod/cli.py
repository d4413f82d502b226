"""Command-line front end.

Subcommands: field-info, classify, normalizer, torsion-search, wh-decomp,
ktop, each declared once, in ``_COMMANDS``: its handler, which returns the
payload ``main`` prints, its arguments and its exit code.  All machine
output is deterministic JSON on stdout (sorted keys, no timestamps);
diagnostics go to stderr.  Exit codes: 0 success, 2 invalid input, 3
matrix not in SL_2(O_k), 4 bounded search inconclusive, 141 (128 +
SIGPIPE) stdout closed by its reader before the output was written.

``main`` reads a plain argv from the table (``_plain_args``): a subcommand
name, then only its exact flags, each once, as "--flag=value" or "--flag
value", every required flag given and every value valid.  It gives the
arguments the full parser would, with no parser built.  The full parser
reads any other argv, and alone prints help and usage errors, with the
top usage; it is built on the first call that needs it and kept, and a
parse changes nothing in it, so no reply depends on earlier calls.  Help
and usage are wrapped at the terminal's width when they are printed, as
argparse does.  argparse is imported with that parser only, so a plain
call loads neither it nor ``gettext`` and ``locale``.

``main`` keeps the fields it has loaded, keyed by the spec's content and at
most ``FIELD_TABLE_SIZE`` of them, so repeated calls in one process load
each field once.  A query never changes a loaded field (each loop refines
a local interval), so no output depends on earlier calls.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .classify import classification_json
from .exactnum import refine_root, require_json
from .modgrp import Mat2, NotUnimodular, default_order_bound, psl_normalize, torsion_orders
from .normalizer import normalizer_json
from .numfield import FieldElement, NumberField

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_SL2 = 3
EXIT_INCONCLUSIVE = 4
EXIT_BROKEN_PIPE = 141

FIELD_TABLE_SIZE = 16  # loaded fields ``main`` keeps, least recently used dropped


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CliError(RuntimeError):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- element and matrix literals ----------------------------------------

_TERM = re.compile(r"(?P<signs>(?:\s*[+-])*)\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?)?"
                   r"\s*(?P<star>\*)?\s*(?P<gen>g(?:\^(?P<exp>\d+))?)?\s*", re.ASCII)


# the interpreter's int-string limit, read at each call: 0 when it is off
# or the interpreter has none
_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digit_limit() -> int:
    """The interpreter's int-string limit, or its default of 4300 digits
    when the limit is off (0) or the interpreter has none."""
    return _int_str_limit() or 4300


def _too_large(x: FieldElement, digits: int) -> bool:
    """Whether a numerator or the denominator of x has more than ``digits``
    decimal digits; below 3 * digits bits (2^3 < 10) no power of 10 is
    built."""
    big = max(x.den, *map(abs, x.num))
    return big.bit_length() > 3 * digits and big >= 10 ** digits


def _generator_power(field: NumberField, e: int, digits: int, pos: int) -> FieldElement:
    """g^e by square-and-multiply in the field, about log2(e) products;
    ParseError as soon as a product has more than ``digits`` digits
    (``_too_large``), so the work stays bounded for any e."""
    acc, base = field.one(), field.generator()
    while e:
        if e & 1:
            acc = acc * base
            if _too_large(acc, digits):
                break
        e >>= 1
        if e:
            base = base * base
            if _too_large(base, digits):
                break
    else:
        return acc
    raise ParseError(f"generator power too large: computing it passes {digits} digits", pos)


def parse_element(text: str, field: NumberField) -> FieldElement:
    """Parse "c0 + c1*g + c2*g^2 + ..." into an exact field element.

    Each term is one match of ``_TERM``: signs, an optional rational ('1',
    '1/2'), an optional '*' and an optional generator power ('g', 'g^3'),
    with whitespace around every part, trailing whitespace included, but
    not inside one ('1 / 2', 'g ^2'), both ASCII only; '*' stands only
    between a rational and a power, and each term after the first starts
    with a sign.  A ParseError gives the position of the first error.

    The coefficients are summed on integers: each power's numerator over
    one running denominator, which takes the lcm with a term's denominator
    that does not divide it (the numerators summed so far scaled up).  The
    powers below the field degree go to ``from_power`` as those numerators
    and that denominator, so such a literal builds no Fraction.  Powers at
    or beyond the degree are reduced by square-and-multiply in the field,
    so a large exponent costs about log2(e) products.

    With L the interpreter's int-string limit (``_digit_limit``), a number
    of more than L digits, a generator power whose computation reaches a
    coordinate of 2L digits, and a value with an integral-basis coordinate
    of more than L digits (numerators over the common denominator, and
    that denominator) are each rejected with ParseError.
    """
    limit = _digit_limit()
    power: dict[int, int] = {}  # exponent: numerator over ``den``
    where: dict[int, int] = {}  # exponent: position of its first term
    den = 1
    pos = 0
    while pos < len(text) or not power:  # an empty text still reads one term
        m = _TERM.match(text, pos)
        if pos and not m["signs"] and m.end() > pos:
            raise ParseError("terms must be separated by '+' or '-'", pos)
        if m["star"] and not m["num"]:
            raise ParseError("unexpected '*'", m.start("star"))
        if not (m["num"] or m["gen"]):
            if m.end() < len(text):
                raise ParseError(f"unexpected character {text[m.end()]!r}", m.end())
            if m["signs"]:
                raise ParseError("trailing operator", m.end("signs") - 1)
            raise ParseError("empty element literal", 0)
        start = m.start("num" if m["num"] else "gen")
        if m["star"] and not m["gen"]:
            raise ParseError("'*' must be followed by the generator", start)
        for digits, at in ((m["num"], "num"), (m["den"], "num"), (m["exp"], "gen")):
            if digits and len(digits) > limit:  # checked before int() reads them
                raise ParseError(f"number of more than {limit} digits", m.start(at))
        q = int(m["den"] or 1)
        if not q:
            raise ParseError("zero denominator", start)
        if den % q:
            scale = q // math.gcd(den, q)
            power = {e: c * scale for e, c in power.items()}
            den *= scale
        c = int(m["num"] or 1) * (den // q)
        exp = int(m["exp"] or 1) if m["gen"] else 0
        power[exp] = power.get(exp, 0) + (-c if m["signs"].count("-") % 2 else c)
        where.setdefault(exp, start)
        pos = m.end()
    n = field.degree
    x = field.from_power([power.get(e, 0) for e in range(n)], den)
    for e, c in power.items():
        if e >= n:
            x = x + _generator_power(field, e, 2 * limit, where[e]) * Fraction(c, den)
    if _too_large(x, limit):
        raise ParseError(f"value has a coordinate of more than {limit} digits", 0)
    return x


def parse_matrix(text: str, field: NumberField) -> Mat2:
    entries = text.split(";")
    if len(entries) != 4:
        raise ParseError(f"expected 4 entries separated by ';', got {len(entries)}", 0)
    return Mat2(*(parse_element(e, field) for e in entries))


# -- input loading -------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:
                raise CliError(EXIT_INVALID, "cannot read -: stdin is closed")
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INVALID, f"cannot read {path}: {exc}")


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CliError(EXIT_INVALID, f"cannot read {path}: {exc}")


@functools.lru_cache(maxsize=FIELD_TABLE_SIZE)
def _field_from_text(text: str, int_str_limit: int) -> NumberField:
    """The field of a spec text, loaded and validated once per distinct
    text.  The interpreter's int-string limit is part of the key, since
    whether a long literal parses depends on it.  A spec that fails raises
    and is not kept."""
    return NumberField.from_json(json.loads(text))


def _load_field(path: str) -> NumberField:
    """The field of the spec at ``path`` (``-``: stdin).  The file is read
    on every call and the loaded field looked up by its text, so a
    rewritten file gives a new field."""
    try:
        return _field_from_text(_read_text(path), _int_str_limit())
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CliError(EXIT_INVALID, f"cannot read {path}: {exc}")
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


def _cmd_field_info(args) -> dict:
    field = _load_field(args.field)
    enclosures = []
    for r in field.root_intervals:  # refined locally: no query changes a loaded field
        r = refine_root(r, Fraction(1, 10 ** 6))
        enclosures.append([str(r.low), str(r.high)])
    return {
        "degree": field.degree,
        "min_poly": field.min_poly.to_json(),
        "integral_basis": [[str(x) for x in row] for row in field.integral_basis],
        "discriminant": str(field.discriminant()),
        "embeddings": enclosures,
    }


def _cmd_classify(args) -> dict:
    field = _load_field(args.field)
    return classification_json(_load_psl(args, field))


def _cmd_normalizer(args) -> dict:
    if args.height < 0:
        raise CliError(EXIT_INVALID, "height must be >= 0")
    field = _load_field(args.field)
    return normalizer_json(_load_psl(args, field), height_bound=args.height)


def _cmd_torsion_search(args) -> dict:
    field = _load_field(args.field)
    m_max = default_order_bound(field.degree) if args.max_order is None else args.max_order
    found = torsion_orders(field, m_max)  # ValueError (exit 2) when m_max < 1
    return {
        "m_max": m_max,
        "orders": [m for m, _ in found],
        "witnesses": {str(m): wit.to_json() for m, wit in found},
    }


def _cmd_wh_decomp(args) -> dict:
    from .ktheory import Census, RingProps, wh_decomposition_psl, wh_decomposition_sl

    try:
        census = Census.from_json(_load_json(args.census))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_INVALID, f"bad census spec: {exc}")
    props = RingProps(regular=args.regular,
                      nk_finite_exponent=args.nk_finite_exponent)
    fn = wh_decomposition_sl if args.sl else wh_decomposition_psl
    expr = fn(census, args.q, props)
    return {
        "group": "sl" if args.sl else "psl",
        "q": args.q,
        "expression": expr.to_json(),
        "notes": expr.notes,
    }


def _cmd_ktop(args) -> dict:
    from .topk import BettiProfile, FiniteCensus, ktop_json

    field = _load_field(args.field)
    data = _load_json(args.cusp_dims) if args.cusp_dims else []
    shape = 'a list of objects {"p": p, "r": r, "dim": d}'
    try:
        entries = [require_json(e, dict, shape, ("p", "r", "dim"))
                   for e in require_json(data, list, shape)]
    except ValueError as exc:
        raise CliError(EXIT_INVALID, f"bad cusp dims: {exc}")
    cusp = tuple((e["p"], e["r"], e["dim"]) for e in entries)
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
    return payload


# -- argument plumbing ---------------------------------------------------


class _Command(NamedTuple):
    run: Callable[..., dict]  # reads the parsed arguments
    arguments: tuple  # (flag, add_argument keywords) for each argument after --format
    exit_code: Callable[[dict], int] = lambda payload: EXIT_OK


_FORMAT = ("--format", dict(choices=("json", "human"), default="json"))
_FIELD = ("--field", dict(required=True, help="field spec JSON path, or - for stdin"))

_COMMANDS = {  # each subcommand, declared here only, in the order of the help text
    "field-info": _Command(_cmd_field_info, (_FIELD,)),
    "classify": _Command(_cmd_classify, (
        _FIELD, ("--matrix", dict(required=True, help='entries "a;b;c;d"')))),
    "normalizer": _Command(_cmd_normalizer, (
        _FIELD, ("--matrix", dict(required=True)),
        ("--height", dict(type=int, default=5,
                          help="involution search height bound (default 5)"))),
        lambda payload: EXIT_INCONCLUSIVE if payload["psl_type"] == "inconclusive" else EXIT_OK),
    "torsion-search": _Command(_cmd_torsion_search, (
        _FIELD,
        ("--max-order", dict(type=int, help="largest order to test (default: the phi bound)")))),
    "wh-decomp": _Command(_cmd_wh_decomp, (
        ("--census", dict(required=True, help="census JSON path")),
        ("--q", dict(type=int, default=1, help="K-theory degree")),
        ("--sl", dict(action="store_true", help="decompose for SL_2(O_k) instead of PSL_2(O_k)")),
        ("--regular", dict(action="store_true")),
        ("--nk-finite-exponent", dict(action="store_true")))),
    "ktop": _Command(_cmd_ktop, (
        _FIELD, ("--class-number", dict(type=int, required=True)),
        ("--finite-census", {}), ("--cusp-dims", {}),
        ("--degree", dict(type=int, default=0, help="K-theory degree q")))),
}

# each subcommand's options, flag: add_argument keywords, in the order of its help
_OPTIONS = {name: dict((_FORMAT, *entry.arguments)) for name, entry in _COMMANDS.items()}


@functools.cache
def _full_parser() -> "argparse.ArgumentParser":
    """The top parser with all six subcommand parsers, built from
    ``_OPTIONS`` on the first call that needs it and kept: parsing reads a
    parser and changes nothing in it.  argparse makes a formatter each time
    it prints help or usage, so the text is wrapped at the terminal's width
    then.  argparse is imported here, so a call the table reads
    (``_plain_args``) loads neither it nor the locale modules its messages
    need."""
    import argparse

    top = argparse.ArgumentParser(prog="hilmod")
    sub = top.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        parser = sub.add_parser(name)
        for flag, keywords in options.items():
            parser.add_argument(flag, **keywords)
    return top


def _plain_args(name: str, tokens: list[str]) -> Optional[SimpleNamespace]:
    """The arguments the full parser reads from ``[name, *tokens]``, read
    from the subcommand's ``_OPTIONS`` alone, when every token is an exact
    flag of the subcommand given once, as "--flag=value" or "--flag value"
    (a value not starting with '-', but "-" itself), every required flag is
    given, and each value converts with its ``type`` and is among its
    ``choices``; a flag not given takes its default.  "--flag=--" gives the
    value "--", the file named "--" for a path, as an argparse that keeps
    a "--" value does (3.13, later 3.12 releases).  Any other argv gives
    None, and the full parser reads it: it alone prints help and usage
    errors, and it reads an abbreviation, a repeat, "--" and a value
    starting with '-' as argparse does."""
    options = _OPTIONS[name]
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            if eq:  # argparse: "ignored explicit argument"
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    args = SimpleNamespace(command=name)
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _matrix_flags(flags) -> frozenset:
    """"--matrix" and, where the subcommand takes it, each abbreviation
    argparse resolves to it there: a prefix from "--m" on that begins no
    other of the subcommand's ``flags`` or --help."""
    options = ["--help", *flags]
    prefixes = ("--matrix"[:n] for n in range(3, 9))
    return frozenset(["--matrix", *(prefix for prefix in prefixes
                                    if [o for o in options if o.startswith(prefix)] == ["--matrix"])])


_MATRIX_FLAGS = {name: _matrix_flags(options) for name, options in _OPTIONS.items()}


def _join_matrix_values(argv: list[str]) -> list[str]:
    """Rewrite "--matrix VALUE" as "--matrix=VALUE", and the same for each
    abbreviation of --matrix in the subcommand (``_MATRIX_FLAGS``
    of the first argument that names one), so that argparse does not read a
    literal starting with '-' as an option."""
    command = next((tok for tok in argv if tok in _COMMANDS), None)
    flags = _MATRIX_FLAGS[command] if command else {"--matrix"}
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in flags else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        argv = _join_matrix_values(argv)
        args = _plain_args(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
        if args is None:
            try:
                args = _full_parser().parse_args(argv)
                # an argparse that drops a "--" value (3.10, 3.11, earlier 3.12
                # releases) reads "--flag=--" as []; the flag alone draws its
                # own usage error, "argument --flag: expected one argument"
                dropped = next((k for k, v in vars(args).items() if isinstance(v, list)), None)
                if dropped is not None:
                    _full_parser().parse_args([args.command, "--" + dropped.replace("_", "-")])
            except SystemExit:  # after --help on stdout, or a usage error on stderr
                sys.stdout.flush()
                raise
        command = _COMMANDS[args.command]
        payload = command.run(args)
        _emit(payload, args.format)
        sys.stdout.flush()
        return command.exit_code(payload)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # what is still buffered goes to the null device, so the flush at
        # interpreter exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
