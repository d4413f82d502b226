import argparse
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilmod import cli
from hilmod.cli import ParseError, _digit_limit, main, parse_element, parse_matrix
from hilmod.numfield import FieldElement, NumberField
from refpoly import power_coords, ref_parse_element
from smoke_cli import (CASES, COMMAND_NAMES, INTERLEAVED, REFINE, USAGE_CASES,
                       in_process_failures, run_in_process, usage_golden)
from test_cli_table import _FIELD_SPECS

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

SQRT2 = str(DATA / "sqrt2.json")
SQRT5 = str(DATA / "sqrt5.json")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_element_basic(sqrt2):
    th = sqrt2.generator()
    one = sqrt2.one()
    assert parse_element("1+1g", sqrt2) == one + th
    assert parse_element("1 + 1*g", sqrt2) == one + th
    assert parse_element("g", sqrt2) == th
    assert parse_element("-g+2", sqrt2) == sqrt2.element([2, -1])
    assert parse_element("0", sqrt2) == sqrt2.zero()
    assert parse_element("3/2", sqrt2) == sqrt2.element([Fraction(3, 2), 0])
    for spaced, plain in (("1 ", "1"), ("g ", "g"), (" 1 + 1*g ", "1+1*g"),
                          ("-g+2\t", "-g+2"), ("1/2 g^2 ", "1/2g^2")):
        assert parse_element(spaced, sqrt2) == parse_element(plain, sqrt2), spaced
    for literal, value in (("--1", one), ("+-g", -th), ("1 g", th), ("2 * g", th * 2),
                           ("3g^0", one * 3)):
        assert parse_element(literal, sqrt2) == value, literal


def test_parse_element_power_reduction(sqrt2):
    # theta^3 = 2*theta for x^2 - 2
    assert parse_element("g^3", sqrt2) == sqrt2.element([0, 2])
    assert parse_element("g^2", sqrt2) == sqrt2.element([2, 0])


def test_parse_element_basis_change(sqrt5):
    # (1 + theta)/2 is the second basis element of Q(sqrt5)
    assert parse_element("1/2+1/2g", sqrt5) == sqrt5.element([0, 1])


def test_parse_element_errors(sqrt2):
    for bad in ("", "1+", "1**g", "*g", "1 2", "g^", "q", "1//2", "g*", "1*", "*", "+",
                "  ", "g1", "g^2g", "g ^2", "1 / 2",
                "\u0661+\u0661g", "g^\u0662", "1\u00a0+ g", "1 + g\u00a0"):  # non-ASCII
        with pytest.raises(ParseError):
            parse_element(bad, sqrt2)
    with pytest.raises(ParseError) as exc:
        parse_element("1+?", sqrt2)
    assert exc.value.position == 2


def render_element(x: FieldElement) -> str:
    """Inverse of parse_element on the power basis, for the round trip."""
    parts = []
    for i, c in enumerate(power_coords(x)):
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


def test_render_parse_roundtrip(sqrt2, sqrt5, cubic7):
    rng = random.Random(13)
    for field in (sqrt2, sqrt5, cubic7):
        for _ in range(300):
            x = field.element([Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                               for _ in range(field.degree)])
            assert parse_element(render_element(x), field) == x


def test_parse_matrix(sqrt2):
    m = parse_matrix("1+1g;1+1g;2;1+1g", sqrt2)
    assert m.a == sqrt2.element([1, 1]) and m.c == sqrt2.element([2, 0])
    with pytest.raises(ParseError):
        parse_matrix("1;2;3", sqrt2)


@pytest.mark.parametrize("entry", range(4))
@pytest.mark.parametrize("bad, message, at", [
    ("1x", "unexpected character 'x'", 1),
    ("", "empty element literal", 0),
    ("2+g+", "trailing operator", 3),
])
def test_parse_matrix_error_position_counts_from_the_matrix_text(capsys, sqrt2, entry,
                                                                 bad, message, at):
    """A bad entry keeps its message, and its position counts from the
    start of the --matrix text, not of the entry."""
    entries = ["1+g", "-1", "2/3", "g^2"]
    start = sum(len(e) + 1 for e in entries[:entry])
    entries[entry] = bad
    text = ";".join(entries)
    want = f"{message} (at position {start + at})"
    with pytest.raises(ParseError, match=re.escape(want)) as info:
        parse_matrix(text, sqrt2)
    assert info.value.position == start + at
    assert run(capsys, "classify", "--field", SQRT2, f"--matrix={text}") == (
        2, "", f"error: bad matrix literal: {want}\n")


def _check_golden(name: str, payload: str):
    want = (GOLDEN / name).read_text()
    assert payload == want


def test_classify_golden(capsys):
    code, out, _ = run(capsys, "classify", "--field", SQRT2,
                       "--matrix", "1+1g;1+1g;2;1+1g")
    assert code == 0
    _check_golden("classify_mixed.json", out)
    code2, out2, _ = run(capsys, "classify", "--field", SQRT2,
                         "--matrix", "1+1g;1+1g;2;1+1g")
    assert out2 == out  # byte-identical across runs


def test_normalizer_golden(capsys):
    code, out, _ = run(capsys, "normalizer", "--field", SQRT2,
                       "--matrix", "1+1g;0;0;-1+1g", "--height", "2")
    assert code == 0
    _check_golden("normalizer_hp.json", out)


def test_whdecomp_golden(capsys):
    code, out, _ = run(capsys, "wh-decomp", "--census", str(DATA / "census_p.json"),
                       "--q", "1")
    assert code == 0
    _check_golden("whdecomp_p.json", out)


def test_ktop_golden(capsys):
    code, out, err = run(capsys, "ktop", "--field", SQRT2, "--class-number", "1",
                         "--finite-census", str(DATA / "fc.json"), "--degree", "0")
    assert code == 0
    assert "lower bound only" in err  # cusp dims defaulted
    _check_golden("ktop_even.json", out)


@pytest.mark.parametrize("cusp", ['[1]', '[{"p": 1}]', '{"p": 1}'])
def test_ktop_malformed_cusp_dims(tmp_path, cusp):
    dims = tmp_path / "cusp.json"
    dims.write_text(cusp)
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "ktop", "--field", SQRT2,
                           "--class-number", "1", "--cusp-dims", str(dims)],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: bad cusp dims:")
    assert "Traceback" not in proc.stderr


# a count given as a non-integer, a bool or a string, in each JSON input
_NON_INTEGER_COUNTS = [
    ("ktop", "--cusp-dims", '[{"p": 1, "r": 1, "dim": 1.5}]'),
    ("ktop", "--cusp-dims", '[{"p": 1, "r": 1, "dim": true}]'),
    ("ktop", "--cusp-dims", '[{"p": true, "r": 1, "dim": 1}]'),
    ("ktop", "--cusp-dims", '[{"p": "1", "r": 1, "dim": 1}]'),
    ("ktop", "--finite-census", '[{"order": 2.5, "count": 1}]'),
    ("ktop", "--finite-census", '[{"order": "3", "count": 1}]'),
    ("wh-decomp", "--census", '{"n": 2, "p": {"finite": 1.5}}'),
    ("wh-decomp", "--census", '{"n": 2, "p": true}'),
    ("wh-decomp", "--census", '{"n": true}'),
    ("wh-decomp", "--census", '{"n": "2"}'),
]


@pytest.mark.parametrize("command,option,text", _NON_INTEGER_COUNTS)
def test_non_integer_counts_rejected(tmp_path, command, option, text):
    spec = tmp_path / "input.json"
    spec.write_text(text)
    argv = [command, option, str(spec)]
    if command == "ktop":
        argv += ["--field", SQRT2, "--class-number", "1"]
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", *argv],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "must be an integer" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("order", [-3, 0, 1])
def test_wh_decomp_rejects_orders_below_two(tmp_path, order):
    spec = tmp_path / "census.json"
    spec.write_text(json.dumps({"n": 2, "finite": [{"order": order, "count": 1}]}))
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "wh-decomp",
                           "--census", str(spec), "--q", "1"],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: bad census spec: finite subgroup order must be >= 2, " \
        f"got {order}\n"


@pytest.mark.parametrize("n", [10 ** 19, 10 ** 12])
def test_wh_decomp_rejects_huge_degrees(tmp_path, n):
    # 10**19 overflowed a tuple size, 10**12 asked for a tuple of 10**12 slots
    spec = tmp_path / "census.json"
    spec.write_text(json.dumps({"n": n}))
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "wh-decomp", "--census", str(spec)],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: bad census spec: degree must be <= 100, got {n}\n"


def test_wh_decomp_largest_census_is_quick(tmp_path):
    # the largest accepted census, every slot filled, answers well within 10 s
    n, one = 100, {"finite": 1}
    census = {"n": n, "finite": [{"order": 2, "count": one}], "m1": [one] * (n - 1),
              "m2": [one] * (n - 1), **{k: one for k in ("p", "h1", "h2", "hp1", "hp2")}}
    spec = tmp_path / "census.json"
    spec.write_text(json.dumps(census))
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "wh-decomp", "--census", str(spec),
                           "--sl"], capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0 and proc.stderr == ""
    assert '"degree": -98' in proc.stdout  # NK_{1-i}(R[Z/2]) for i up to n - 1


def test_field_info_golden(capsys):
    code, out, _ = run(capsys, "field-info", "--field", SQRT5)
    assert code == 0
    _check_golden("field_info_sqrt5.json", out)


@pytest.mark.parametrize("name", ["sqrt2", "cubic"])
def test_field_info_golden_more_fields(capsys, name):
    code, out, _ = run(capsys, "field-info", "--field", str(DATA / f"{name}.json"))
    assert code == 0
    _check_golden(f"field_info_{name}.json", out)


def test_exit_code_invalid_input(capsys):
    code, out, err = run(capsys, "classify", "--field", SQRT2, "--matrix", "1+;2;3;4")
    assert code == 2 and out == "" and "bad matrix literal" in err
    code2, _, _ = run(capsys, "classify", "--field", "/nonexistent.json",
                      "--matrix", "1;0;0;1")
    assert code2 == 2


def test_non_ascii_digits_exit_2(capsys):
    # Arabic-Indic digits for 1+1g;1+1g;2;1+1g, the golden mixed element
    code, out, err = run(capsys, "classify", "--field", SQRT2,
                         "--matrix", "\u0661+\u0661g;\u0661+\u0661g;\u0662;\u0661+\u0661g")
    assert code == 2 and out == "" and "bad matrix literal" in err


def test_exit_code_not_sl2(capsys):
    code, out, err = run(capsys, "classify", "--field", SQRT2, "--matrix", "1;0;0;2")
    assert code == 3 and out == ""


@pytest.mark.parametrize("argv", [
    ["field-info", "--field", SQRT5],  # fits the stdout buffer: fails at the flush
    ["wh-decomp", "--census", str(DATA / "census_full100.json"), "--sl"],  # fails in print
    ["--help"],  # argparse writes the help, then raises SystemExit
    ["wh-decomp", "--help"],
])
def test_closed_stdout_exits_141_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "hilmod.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=30,
                              env={**env, "PYTHONPATH": SRC})
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == ""


def test_exit_code_inconclusive(capsys):
    # a mixed element has no inverting involution (the search certifies
    # None at any height), and the report still maps that to exit 4
    code, out, _ = run(capsys, "normalizer", "--field", SQRT2,
                       "--matrix", "1+1g;1+1g;2;1+1g", "--height", "0")
    assert code == 4
    assert '"psl_type": "inconclusive"' in out
    assert '"census_slot": "undetermined"' in out


def test_matrix_with_leading_minus(capsys):
    code, out, err = run(capsys, "classify", "--field", SQRT2, "--matrix", "-1;0;0;-1")
    assert code == 0 and '"class": "identity"' in out and err == ""
    # minus the golden example: the same PSL element, so the same record
    code, out, _ = run(capsys, "normalizer", "--field", SQRT2,
                       "--matrix", "-1-1g;0;0;1-1g", "--height", "2")
    assert code == 0
    _check_golden("normalizer_hp.json", out)


@pytest.mark.parametrize("flag", ["--m", "--ma", "--mat", "--matri"])
def test_abbreviated_matrix_with_leading_minus(capsys, flag):
    """An abbreviation argparse resolves to --matrix takes a literal that
    starts with '-' as --matrix does."""
    code, out, err = run(capsys, "classify", "--field", SQRT2, flag, "-1;0;0;-1")
    assert code == 0 and '"class": "identity"' in out and err == ""
    code, out, err = run(capsys, "normalizer", "--field", SQRT2,
                         flag, "-1-1g;0;0;1-1g", "--height", "2")
    assert code == 0 and err == ""
    _check_golden("normalizer_hp.json", out)


def test_abbreviated_max_order_is_not_a_matrix(capsys):
    """Where --ma abbreviates --max-order, its value is read as before: a
    number, and a negative one is a bad bound (exit 2), not a literal."""
    code, out, err = run(capsys, "torsion-search", "--field", SQRT2, "--ma", "5")
    assert code == 0 and json.loads(out)["m_max"] == 5 and err == ""
    code, out, err = run(capsys, "torsion-search", "--field", SQRT2, "--ma", "-3")
    assert (code, out, err) == (2, "", "error: m_max must be >= 1\n")


def test_zero_denominator_in_matrix(capsys):
    code, out, err = run(capsys, "classify", "--field", SQRT2, "--matrix", "1/0;0;0;1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_zero_denominator_in_field_spec(capsys, tmp_path):
    spec = tmp_path / "field.json"
    spec.write_text('{"min_poly": ["-2/0", "0/1", "1/1"]}')
    code, out, err = run(capsys, "field-info", "--field", str(spec))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_exponent_in_field_spec_exits_2_at_once(tmp_path):
    """An exponent is no rational string: rejected before any digit is
    built, not expanded to a million-digit integer."""
    spec = tmp_path / "field.json"
    spec.write_text('{"min_poly": ["-1e1000000", "0", "1"]}')
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "field-info", "--field", str(spec)],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: bad field spec") and '"p" or "p/q"' in proc.stderr


def test_non_string_rational_in_field_spec(capsys, tmp_path):
    spec = tmp_path / "field.json"
    spec.write_text('{"min_poly": [-2, 0, 1]}')
    code, out, err = run(capsys, "field-info", "--field", str(spec))
    assert code == 2 and out == "" and err.startswith("error: bad field spec")


def test_basis_not_spanning_an_order(capsys, tmp_path):
    spec = tmp_path / "field.json"
    spec.write_text('{"min_poly": ["-2", "0", "1"], "integral_basis": [["1", "0"], ["0", "1/2"]]}')
    code, out, err = run(capsys, "field-info", "--field", str(spec))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "does not span an order" in err


def test_torsion_search_large_max_order(capsys):
    """--max-order 400 answers within 10 s, as --max-order 12 does."""
    code, out, _ = run(capsys, "torsion-search", "--field", SQRT2, "--max-order", "12")
    assert code == 0
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "torsion-search",
                           "--field", SQRT2, "--max-order", "400"],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    orders = json.loads(proc.stdout)["orders"]
    assert orders == json.loads(out)["orders"] == [1, 2, 3, 4, 6, 8]


def test_torsion_search_max_order_zero(capsys):
    code, out, err = run(capsys, "torsion-search", "--field", SQRT2, "--max-order", "0")
    assert code == 2 and out == "" and err == "error: m_max must be >= 1\n"
    code, out, err = run(capsys, "torsion-search", "--field", SQRT2, "--max-order", "-3")
    assert code == 2 and out == "" and err == "error: m_max must be >= 1\n"


def test_normalizer_negative_height(capsys):
    code, out, err = run(capsys, "normalizer", "--field", SQRT2,
                         "--matrix", "1+1g;1+1g;2;1+1g", "--height", "-1")
    assert code == 2 and out == "" and err.startswith("error:") and "height" in err


def _at_most_sqrt2(x: Fraction) -> bool:
    return x <= 0 or x * x <= 2


def _at_least_sqrt2(x: Fraction) -> bool:
    return x >= 0 and x * x >= 2


@pytest.mark.parametrize("e", [200, 400])
def test_field_info_roots_far_from_zero(tmp_path, e):
    """(x - N)^2 - 2 with N = 10^e: the roots N -+ sqrt2 sit about N from 0
    in a Cauchy interval about N^2 wide, so isolating them takes more than
    1000 nested splits (about 1330 at e = 200)."""
    n = 10 ** e
    spec = tmp_path / "far.json"
    spec.write_text(json.dumps({"min_poly": [str(n * n - 2), str(-2 * n), "1"]}))
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "field-info", "--field", str(spec)],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-300:]
    (a, b), (c, d) = [[Fraction(x) for x in pair] for pair in json.loads(proc.stdout)["embeddings"]]
    # a <= N - sqrt2 <= b and c <= N + sqrt2 <= d, decided on rationals
    assert _at_most_sqrt2(n - b) and _at_least_sqrt2(n - a)
    assert _at_most_sqrt2(c - n) and _at_least_sqrt2(d - n)


def test_large_generator_power():
    """Over Q(sqrt2), g^e is 2^(e/2).  g^20000, 3011 digits, is parsed at
    once and is not in SL_2 (exit 3).  Under the default int-string limit
    of 4300 digits, a literal whose value passes it exits 2 at once, in a
    child process with a timeout: g^30000 has 4516 digits, g^100000 15052
    (it once ran 56 s), and g^99999999999 about 1.5e10 (it once ran out of
    memory)."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONINTMAXSTRDIGITS": "4300"}

    def classify(matrix: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "hilmod.cli", "classify", "--field", SQRT2,
                               "--matrix", matrix], capture_output=True, text=True, timeout=10,
                              env=env)

    proc = classify("g^20000;0;0;1")
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error:")
    for matrix in ("1+g^30000;g^30000;1;1", "1+g^100000;g^100000;1;1", "g^99999999999;0;0;1"):
        proc = classify(matrix)
        assert proc.returncode == 2 and proc.stdout == "", (matrix, proc.stderr)
        assert proc.stderr.startswith("error: bad matrix literal: "), (matrix, proc.stderr)
        assert "Exceeds the limit" not in proc.stderr


def test_parse_element_size_limit(sqrt2):
    """A number, a generator power or a value past the int-string limit is
    a ParseError; a literal whose large terms cancel is not."""
    limit = _digit_limit()
    half = 2 * math.ceil(limit / math.log10(2))  # 2^(half/2) has over `limit` digits
    for bad in ("1" * (limit + 1), "1/" + "3" * (limit + 1), "g^" + "9" * (limit + 1),
                f"g^{half}", f"1+g^{half}", f"g^{4 * half}", "g^99999999999"):
        with pytest.raises(ParseError):
            parse_element(bad, sqrt2)
    assert parse_element("9" * limit, sqrt2) == sqrt2.element([int("9" * limit), 0])
    assert parse_element(f"g^{half}-g^{half}+1", sqrt2) == sqrt2.one()
    assert parse_element(f"g^{half - 2}", sqrt2) == sqrt2.element([2 ** (half // 2 - 1), 0])


def test_zero_divisor_sign_exits_2(tmp_path):
    """(x^2 - 2)(x^2 - 3) loads, and theta^2 - 3 embeds to exactly 0 at
    theta = -sqrt3, where refining the root never decides its sign: the CLI
    reports the zero divisor at once."""
    spec = tmp_path / "quartic.json"
    spec.write_text('{"min_poly": ["6", "0", "-5", "0", "1"]}')
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "classify", "--field", str(spec),
                           "--matrix", "g^2-3;1;-1;0"],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: zero divisor: the minimal polynomial is reducible\n"


def test_parse_element_large_powers(sqrt2, sqrt5, cubic7):
    # square-and-multiply against repeated multiplication by the generator
    for field in (sqrt2, sqrt5, cubic7):
        g, acc = field.generator(), field.one()
        for e in range(40):
            assert parse_element(f"g^{e}", field) == acc
            assert parse_element(f"3/2g^{e}-g^{e + 1}+1", field) == \
                acc * Fraction(3, 2) - acc * g + field.one()
            acc = acc * g
    assert parse_element("g^100", sqrt2) == sqrt2.element([2 ** 50, 0])


def _parsed(parse, text: str, field: NumberField):
    """((num, den), None) for the value ``parse`` gives, or (None,
    (message, position)) for its ParseError."""
    try:
        x = parse(text, field)
    except ParseError as exc:
        return None, (str(exc), exc.position)
    assert x.field is field
    return (x.num, x.den), None


def _literal_cases(n: int, limit: int) -> list[str]:
    """Literals over a field of degree n for the comparison with the
    reference parser, at the limit L = ``limit``."""
    big, other = "1" + "0" * (limit - 1), "9" * limit  # L digits each, coprime
    return [
        # several coprime denominators on one power, and on several
        "1/3g + 1/5g - 2/7g + 1/11g", "1/3 + 1/5 + 1/7 + 1/2g + 1/9g - 4/6",
        "2/4 + 3/6 - 5/10g + 7/35g^2 - 1/12g^2", "1/8 + 3/4 - 1/2 + 1/16g",
        # zero denominators
        "1/0", "g - 3/0g", "2/00", "0/0", "1/2 + 0/0g", f"g^{n} + 1/0",
        # cancelling terms
        "g - g", "1/2 - 1/2 + 2/4g - 1/2g", f"3/4g^{n + 2} - 3/4g^{n + 2}",
        f"1/3g^{n} + 1 - 1/3g^{n} - 1", "0", "0g^7", "--0",
        # powers at and above the degree mixed with fractions
        f"3/4g^{n + 2} - 1/6g^{n} + 2/9 - 5/8g^{n + 1} + 1/10g", f"g^{n}", f"1/7g^{2 * n}",
        f"g^{n} - 1/2g^{n} + 1/3g^{n - 1} - 5/6g^{2 * n + 3} + 1/4", f"1/2 g^{3 * n} + 1/3*g^0",
        # numbers of L and L + 1 digits
        other, big, "1/" + other, f"{other}/{big}g", "-" + other + "g^0",
        "g^" + "1" * limit, "9" * (limit + 1), "1/" + "3" * (limit + 1), "g^" + "1" * (limit + 1),
        "1 + 00" + "1" * (limit - 1), f"1/2 + {big}0/3g",
        # the common denominator passes L digits only after the lcm
        f"1/{big} + 1/{other}", f"1/{big} + 1/{other}g", f"1/{big} - 1/{big}g + 1/{other}",
        f"1/{other} + 2/{other}g - 3/{other}",
    ]


_FUZZ_ALPHABET = " +-*/^g0123456789?x\t"


def _random_literal(rng: random.Random, n: int) -> str:
    terms = []
    for k in range(rng.randint(1, 6)):
        sign = rng.choice(("+", "-", " - ", "+-", "--", " + ")) if k or rng.random() < 0.3 else ""
        num = rng.choice(("", "", "0", str(rng.randint(1, 40)), str(rng.randint(1, 10 ** 9))))
        if num and rng.random() < 0.5:
            num += "/" + str(rng.choice((0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 35, 97, rng.randint(1, 10 ** 6))))
        gen = rng.choice(("", "g", f"g^{rng.randint(0, 3 * n + 2)}", f"g^{rng.randint(0, 200)}"))
        star = "*" if num and gen and rng.random() < 0.3 else ""
        terms.append(f"{sign}{num}{star}{gen}" or sign + "1")
    text = "".join(terms)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):  # a few edits give the error paths
        at = rng.randint(0, len(text))
        edit = rng.choice(_FUZZ_ALPHABET)
        text = text[:at] + edit + text[at + rng.randint(0, 1):]
    return text


def test_literal_parser_matches_reference(rationals, sqrt2, sqrt5, cubic7):
    """The integer parser and the Fraction reference give the same value,
    or the same ParseError message and position, on seeded literals over Q,
    Q(sqrt2), Q(sqrt5) (a basis over 2) and the cubic."""
    limit = _digit_limit()
    rng = random.Random(32)
    counts = {"parsed": 0, "errors": 0}
    for field in (rationals, sqrt2, sqrt5, cubic7):
        n = field.degree
        literals = _literal_cases(n, limit) + [_random_literal(rng, n) for _ in range(1500)]
        for text in literals:
            got = _parsed(parse_element, text, field)
            assert got == _parsed(ref_parse_element, text, field), (field, text[:80])
            counts["parsed" if got[1] is None else "errors"] += 1
    assert counts["parsed"] > 1000 and counts["errors"] > 1000, counts


def test_literal_parser_builds_no_fraction(monkeypatch, rationals, sqrt2, sqrt5, cubic7):
    """A literal whose powers are all below the field degree is summed on
    integers: no Fraction is built and no Fraction arithmetic runs."""
    cases = [(rationals, "1/2 - 3/4 + 5/6 + 7"), (rationals, "--9/12 + 0")]
    for field in (sqrt2, sqrt5, cubic7):
        cases += [(field, "1/2 + 3/4g - 5/6g + 7"), (field, "--3/9 g^1 + 2/3 g^0"),
                  (field, "0"), (field, "g - g"), (field, "1/3g + 1/5g - 2/7 * g + 1/11")]
    cases += [(cubic7, "1/2g^2 - 1/3g + 5/7 - 4/6g^2")]
    want = [ref_parse_element(text, field) for field, text in cases]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic")

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
        monkeypatch.setattr(Fraction, f"__r{op}__", forbidden)
    for (field, text), x in zip(cases, want):
        assert parse_element(text, field) == x, text
    assert built == []
    parse_element("1/2g^2", sqrt2)  # a power at the degree is scaled by a Fraction
    assert built


def test_literal_table_matches_reference(rationals, sqrt2, sqrt5, cubic7):
    """Seeded literals over Q, Q(sqrt2), Q(sqrt5) and the cubic give the
    reference parser's value or ParseError on a first and a second call,
    and the second call returns the kept element itself."""
    rng = random.Random(38)
    kept = 0
    for field in (rationals, sqrt2, sqrt5, cubic7):
        n = field.degree
        for text in _literal_cases(n, _digit_limit()) + [_random_literal(rng, n) for _ in range(300)]:
            want = _parsed(ref_parse_element, text, field)
            assert _parsed(parse_element, text, field) == want, (field, text[:80])
            if want[1] is None:
                assert parse_element(text, field) is parse_element(text, field), text[:80]
                kept += 1
            else:
                assert _parsed(parse_element, text, field) == want, (field, text[:80])
    assert kept > 500, kept


def test_literal_table_gives_each_field_its_own_element(sqrt2, sqrt5):
    """One text over two fields is two elements, each of its own field."""
    for text in ("g", "1/2 + 3/2g", "g^3 - 1"):
        a, b = parse_element(text, sqrt2), parse_element(text, sqrt5)
        assert a.field is sqrt2 and b.field is sqrt5
        assert a == ref_parse_element(text, sqrt2) and b == ref_parse_element(text, sqrt5)
        assert parse_element(text, sqrt2) is a and parse_element(text, sqrt5) is b
    assert parse_element("g", sqrt2).num != parse_element("g", sqrt5).num  # basis (1, (1+g)/2)


def test_literal_table_keeps_no_failure(sqrt2):
    """A bad literal raises the same ParseError, message and position, on
    each call, and is not kept."""
    parse_element("1 + g", sqrt2)
    size = cli._element_from_text.cache_info().currsize
    for bad in ("1 + g +", "1/0", "g ^2", "g g", "x", "", "9" * (_digit_limit() + 1)):
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                parse_element(bad, sqrt2)
            errors.append((str(exc.value), exc.value.position))
        assert errors[0] == errors[1], bad[:40]
        assert cli._element_from_text.cache_info().currsize == size, bad[:40]


def test_literal_table_drops_the_least_recently_used(monkeypatch, sqrt2):
    """LITERAL_TABLE_SIZE + 1 distinct literals keep LITERAL_TABLE_SIZE:
    the first is dropped and parsed again, the last is kept."""
    size = cli.LITERAL_TABLE_SIZE
    calls = []
    from_power = NumberField.from_power

    def counted(self, *args, **kwargs):
        calls.append(args)
        return from_power(self, *args, **kwargs)

    monkeypatch.setattr(NumberField, "from_power", counted)
    texts = [f"{k} + {k + 1}/2g" for k in range(size + 1)]
    first = [parse_element(text, sqrt2) for text in texts]
    assert len(calls) == size + 1
    assert cli._element_from_text.cache_info().currsize == size
    assert parse_element(texts[-1], sqrt2) is first[-1] and len(calls) == size + 1
    again = parse_element(texts[0], sqrt2)
    assert again == first[0] and again is not first[0] and len(calls) == size + 2
    assert cli._element_from_text.cache_info().currsize == size


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-string limit")
def test_literal_table_follows_the_int_string_limit(sqrt2):
    """A 1000-digit literal is a ParseError under a limit of 640 digits,
    parses under 4300, and is a ParseError again under 640, whatever was
    parsed before."""
    text = "9" * 1000
    before = sys.get_int_max_str_digits()
    try:
        for limit, parses in ((640, False), (4300, True), (640, False), (4300, True)):
            sys.set_int_max_str_digits(limit)
            if parses:
                assert parse_element(text, sqrt2) == sqrt2.element([10 ** 1000 - 1, 0])
            else:
                with pytest.raises(ParseError, match="number of more than 640 digits"):
                    parse_element(text, sqrt2)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("name", ["sqrt2", "sqrt5", "cubic"])
def test_torsion_search_golden(capsys, name):
    code, out, _ = run(capsys, "torsion-search", "--field", str(DATA / f"{name}.json"),
                       "--max-order", "18")
    assert code == 0
    _check_golden(f"torsion_search_{name}_18.json", out)


def test_torsion_search_golden_sextic():
    """Q(zeta_13)^+ at its default order bound, in a child process.  Tried
    over all 6^6 assignments of roots to embeddings, rather than the
    balanced ones, the search takes over 40 s on one core."""
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "torsion-search",
                           "--field", str(DATA / "ct13.json")],
                          capture_output=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / "torsion_search_ct13.json").read_bytes()


def test_classify_golden_ct37():
    """Q(cos(2pi/37)), of degree 18, in a child process under a 10 s
    timeout.  For the matrix 2;1;1;1, Tr^2 - 4 = 5 is totally positive
    with the square norm 5^18, and without the residue certificate (5 is
    a non-residue mod 73) the square test ran the lattice over 2^17 sign
    patterns, past 20 s."""
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "classify",
                           "--field", str(DATA / "ct37.json"), "--matrix", "2;1;1;1"],
                          capture_output=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / "classify_ct37.json").read_bytes()


def test_smoke_script():
    """tests/smoke_cli.py, the stdlib-only golden check, passes."""
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "smoke_cli.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    assert "ok   help and usage at COLUMNS=80: 10/10 match\n" in proc.stdout
    assert "ok   in one interpreter, forward, REFINE, reversed: 56/56 replies match\n" \
        in proc.stdout
    assert "ok   the Q(sqrt 2) field kept through REFINE equals a fresh load\n" in proc.stdout
    assert proc.stdout.endswith("18/18 cases match\n")


# -- the field table: main keeps loaded fields between calls -------------

def test_replies_do_not_depend_on_earlier_calls(monkeypatch, tmp_path):
    """In one interpreter at COLUMNS=80: every golden case of smoke_cli.py
    with a help or usage case after each of the first ten, then a classify
    whose sign decisions refine an embedding of Q(sqrt2) to about 10^4
    bits, then every case again in reverse order; each reply equals its
    golden, with its exit code, so none depends on a field or a parser
    kept from an earlier call.  The zero-divisor spec of
    test_zero_divisor_sign_exits_2 is loaded and kept, and exits 2 with
    the same message on each call.  On that spec, x = (g^2 - 2)(g + 2) is
    a zero divisor with sigma_0(x) near 0.27, whose first enclosure over
    the load-time interval of -sqrt3 holds 0; it must exit 2 also after a
    classify that refines that embedding far enough to decide the sign of
    sigma_0(x), which leaves the kept field as a fresh load has it."""
    monkeypatch.setenv("COLUMNS", "80")
    assert in_process_failures(INTERLEAVED) == []
    code, _, err = run_in_process(REFINE)
    assert code == 0, err
    assert in_process_failures(INTERLEAVED[::-1]) == []
    spec = tmp_path / "quartic.json"
    spec.write_text('{"min_poly": ["6", "0", "-5", "0", "1"]}')  # (x^2 - 2)(x^2 - 3)
    argv = ["classify", "--field", spec, "--matrix=g^2-3;1;-1;0"]
    for _ in range(2):
        assert run_in_process(argv) == \
            (2, b"", "error: zero divisor: the minimal polynomial is reducible\n")
    zero_divisor = ["classify", "--field", spec, "--matrix=g^3+2*g^2-2*g-4;1;-1;0"]
    assert run_in_process(zero_divisor) == \
        (2, b"", "error: zero divisor: the minimal polynomial is reducible\n")
    code, _, err = run_in_process(["classify", "--field", spec, "--matrix=1+g^500;g^500;1;1"])
    assert code == 0, err
    field = cli._load_field(str(spec))
    assert cli._load_field(str(spec)) is field
    assert field.root_intervals == NumberField.from_json(json.loads(spec.read_text())).root_intervals
    assert run_in_process(zero_divisor) == \
        (2, b"", "error: zero divisor: the minimal polynomial is reducible\n")


@pytest.fixture
def field_loads(monkeypatch):
    """The fields ``NumberField.__init__`` is called on while the test
    runs; the field table starts empty (``empty_process_tables``)."""
    calls = []
    init = NumberField.__init__

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NumberField, "__init__", counted)
    return calls


def test_field_table_is_keyed_by_content(capsys, monkeypatch, tmp_path, field_loads):
    """One spec text through two paths and through stdin is loaded once,
    into one object; rewriting a file gives a new load."""
    text = Path(SQRT2).read_text()
    copy = tmp_path / "copy.json"
    copy.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    replies = [run(capsys, "field-info", "--field", path) for path in (SQRT2, str(copy), "-")]
    assert replies == [(0, (GOLDEN / "field_info_sqrt2.json").read_text(), "")] * 3
    assert len(field_loads) == 1
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli._load_field(SQRT2) is cli._load_field(str(copy)) is cli._load_field("-")
    assert len(field_loads) == 1

    copy.write_text(Path(SQRT5).read_text())
    assert run(capsys, "field-info", "--field", str(copy)) == \
        (0, (GOLDEN / "field_info_sqrt5.json").read_text(), "")
    assert len(field_loads) == 2
    assert cli._load_field(str(copy)) is not cli._load_field(SQRT2)


_LOADING_SPECS = ("rationals", "sqrt2", "sqrt5", "cubic", "reducible_quartic")


def test_failed_loads_are_not_kept(capsys, tmp_path, field_loads):
    """Every field spec of test_cli_table.py that fails to load exits 2
    with the same message on each of two calls, and is not kept."""
    for name, text in _FIELD_SPECS.items():
        if name in _LOADING_SPECS:
            continue
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        first, second = (run(capsys, "field-info", "--field", str(path)) for _ in range(2))
        assert first == second and first[0] == 2 and first[2].startswith("error:"), name
        assert cli._field_from_text.cache_info().currsize == 0, name


def test_field_table_drops_the_least_recently_used(capsys, tmp_path, field_loads):
    """Q(sqrt d) for FIELD_TABLE_SIZE + 1 values of d: the first field is
    dropped and loaded again, the last is kept, and no reply changes."""
    size = cli.FIELD_TABLE_SIZE
    squarefree = [d for d in range(2, 200) if all(d % (k * k) for k in range(2, 15))]
    paths = []
    for d in squarefree[:size + 1]:
        paths.append(tmp_path / f"q{d}.json")
        paths[-1].write_text(json.dumps({"min_poly": [str(-d), "0", "1"]}))
    replies = [run(capsys, "field-info", "--field", str(path)) for path in paths]
    assert replies[0] == (0, (GOLDEN / "field_info_sqrt2.json").read_text(), "")
    assert len(field_loads) == size + 1
    assert run(capsys, "field-info", "--field", str(paths[-1])) == replies[-1]
    assert len(field_loads) == size + 1
    assert run(capsys, "field-info", "--field", str(paths[0])) == replies[0]
    assert len(field_loads) == size + 2
    assert cli._field_from_text.cache_info().currsize == size


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-string limit")
def test_field_table_follows_the_int_string_limit(capsys, tmp_path, field_loads):
    """A spec with a 5001-digit literal exits 2 under the default limit of
    4300 digits and loads with the limit off, whatever was loaded before."""
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps({"min_poly": ["-" + "0" * 5000 + "2", "0", "1"]}))
    before = sys.get_int_max_str_digits()
    try:
        for limit, code in ((4300, 2), (0, 0), (4300, 2)):
            sys.set_int_max_str_digits(limit)
            assert run(capsys, "field-info", "--field", str(spec))[0] == code, limit
    finally:
        sys.set_int_max_str_digits(before)


def test_torsion_search(capsys):
    code, out, _ = run(capsys, "torsion-search", "--field", SQRT2,
                       "--max-order", "8")
    assert code == 0
    assert '"orders": [\n    1,\n    2,\n    3,\n    4,\n    6,\n    8\n  ]' in out


def test_human_format(capsys):
    code, out, _ = run(capsys, "classify", "--field", SQRT2,
                       "--matrix", "1+1g;1+1g;2;1+1g", "--format", "human")
    assert code == 0
    assert out.startswith("class: ")


def test_stdin_field(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(SQRT2).read_text()))
    code, out, _ = run(capsys, "field-info", "--field", "-")
    assert code == 0 and '"degree": 2' in out


def _argv_reading(option: str, path: str) -> list[str]:
    """A call whose ``option`` reads the file at ``path``."""
    argv = {"--field": ["field-info"], "--census": ["wh-decomp"]}.get(
        option, ["ktop", "--field", SQRT2, "--class-number", "1"])
    return [*argv, option, path]


@pytest.mark.parametrize("option", ["--field", "--census"])
def test_closed_stdin_exits_2(capsys, monkeypatch, option):
    """With stdin closed (sys.stdin is None), "-" is a file that cannot be
    read, not a traceback."""
    monkeypatch.setattr("sys.stdin", None)
    assert run(capsys, *_argv_reading(option, "-")) == (
        2, "", "error: cannot read -: stdin is closed\n")


@pytest.mark.parametrize("option", ["--field", "--census", "--finite-census", "--cusp-dims"])
def test_file_not_utf8_exits_2(capsys, tmp_path, option):
    """A file that is not UTF-8 cannot be read: the message names its path,
    not a bad spec."""
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    code, out, err = run(capsys, *_argv_reading(option, str(path)))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("option", ["--field", "--census", "--finite-census", "--cusp-dims"])
def test_empty_path_exits_2(capsys, option):
    """An empty path names no file: it cannot be read, and is not taken
    for an absent option."""
    assert run(capsys, *_argv_reading(option, "")) == (
        2, "", "error: cannot read : [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("option", ["--field", "--census", "--finite-census", "--cusp-dims"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, option):
    """JSON nested past the decoder's recursion limit is a malformed file,
    not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *_argv_reading(option, str(deep)))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {deep}: ") and "recursion" in err


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_text_matches_the_default_formatter(capsys, monkeypatch, columns):
    """Help and usage text are those of argparse's own formatter, which asks
    the terminal each time it prints.  The parser is built here, not taken
    from the one main keeps, since the test changes it."""
    monkeypatch.setenv("COLUMNS", columns)
    build, calls = cli._full_parser, []
    monkeypatch.setattr(cli, "_full_parser", lambda: calls.append(None) or build())
    with pytest.raises(SystemExit):
        main(["--help"])
    printed = capsys.readouterr().out
    top = build.__wrapped__()
    assert calls == [None] and printed == top.format_help()
    sub, = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == COMMAND_NAMES
    for parser in (top, *sub.choices.values()):
        shared = parser.format_help(), parser.format_usage()
        parser.formatter_class = argparse.HelpFormatter
        assert (parser.format_help(), parser.format_usage()) == shared, parser.prog


@pytest.fixture
def parser_builds(monkeypatch):
    """No kept parser, and the ArgumentParsers constructed, argparse's
    gettext lookups and the terminal queries while the test runs, counted."""
    counts = {"ArgumentParser": 0, "gettext": 0, "terminal": 0}
    init, lookup, size = argparse.ArgumentParser.__init__, argparse._, shutil.get_terminal_size

    def constructed(self, *args, **kwargs):
        counts["ArgumentParser"] += 1
        init(self, *args, **kwargs)

    def looked_up(message):
        counts["gettext"] += 1
        return lookup(message)

    def asked(*args):
        counts["terminal"] += 1
        return size(*args)

    cli._full_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", constructed)
    monkeypatch.setattr(argparse, "_", looked_up)
    monkeypatch.setattr(shutil, "get_terminal_size", asked)
    yield counts
    cli._full_parser.cache_clear()


def taken(counts: dict) -> dict:
    """The counts so far, which start again from 0."""
    out = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    return out


NOTHING = {"ArgumentParser": 0, "gettext": 0, "terminal": 0}

CENSUS_P = str(DATA / "census_p.json")

# one plain call of each subcommand, in the order of the help text
PLAIN_CALLS = [
    ["field-info", "--field", SQRT2],
    ["classify", "--field", SQRT2, "--matrix=1+1g;1+1g;2;1+1g"],
    ["normalizer", "--field", SQRT2, "--matrix=1+1g;0;0;-1+1g", "--height", "2"],
    ["torsion-search", "--field", SQRT2, "--max-order", "12"],
    ["wh-decomp", "--census", CENSUS_P, "--q", "1"],
    ["ktop", "--field", SQRT2, "--class-number", "1",
     "--finite-census", str(DATA / "fc.json"), "--degree", "0"],
]


def test_kept_parser_asks_the_terminal_nothing(capsys, monkeypatch, parser_builds):
    """A plain call asks the terminal nothing, constructs no ArgumentParser
    and makes no gettext lookup, the first with no parser kept as well as a
    repeat at COLUMNS 80 and one at 100."""
    classify = ["classify", "--field", SQRT2, "--matrix", "1;1;0;1"]
    monkeypatch.setenv("COLUMNS", "80")
    reply = run(capsys, *classify)
    assert reply[0] == 0 and taken(parser_builds) == NOTHING
    for columns in ("80", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        assert run(capsys, *classify) == reply
        assert taken(parser_builds) == NOTHING, columns


@pytest.mark.parametrize("golden,argv,code", USAGE_CASES, ids=[c[0] for c in USAGE_CASES])
def test_help_and_usage_goldens(capsys, monkeypatch, golden, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    written, silent = (out.out, out.err) if code == 0 else (out.err, out.out)
    assert exc.value.code == code
    assert written == usage_golden(golden).read_text() and silent == ""


# -- the table path: a plain argv is read from _OPTIONS, any other by the full parser

# every argv above and of smoke_cli.py, options before, after or abbreviated
# around a subcommand name, "--" anywhere, arguments left over after a parse
# that would succeed, with help or an invalid value among them, and values
# the table reads as argparse does or leaves to it: "=" forms, a value int()
# reads with a space or an underscore, an empty value, a repeated or
# valued store_true flag, a separate negative value, a "--" value and a
# missing required flag
_ORACLE_ARGVS = [argv for _, argv, _ in USAGE_CASES] + [
    [str(a) for a in argv] for _, argv, _ in CASES
] + PLAIN_CALLS + [
    ["--format", "json", "classify", "--field", SQRT2, "--matrix", "1;1;0;1"],
    ["-h", "classify"],
    ["--foo", "classify", "--field", SQRT2, "--matrix", "1;1;0;1"],
    ["classify", "--field", SQRT2, "--matrix", "1;1;0;1", "--max-order", "3"],
    ["classify", "--fie", SQRT2, "--mat", "1;1;0;1"],
    ["classify", "--field", SQRT2, "--", "--matrix", "1;1;0;1"],
    ["classify", "--field", SQRT2, "--matrix", "1;1;0;1", "--"],
    ["classify", "--", "--field", SQRT2, "--matrix", "1;1;0;1"],
    ["classify", "--field", SQRT2, "--matrix", "1;1;0;1", "extra", "--bogus"],
    ["classify", "-h", "--bogus"],
    ["classify", "--bogus", "-h"],
    ["classify", "--format", "xml", "--bogus"],
    ["classify", "--field", SQRT2, "--matrix", "-1;0;0;-1", "--fo", "human"],
    ["classify", f"--field={SQRT2}", "--matrix=1;1;0;1", "--format=human"],
    ["classify", "--field", SQRT2, "--matrix", "1;1;0;1", "--format", "xml"],
    ["classify", "--field", SQRT2, "--matrix", "1;1;0;1", "--format", "json", "--format", "human"],
    ["classify", "--field", SQRT2, "--matrix=a=b"],
    ["classify", "--field", "-", "--matrix", "-"],
    ["classify", "--matrix=1;1;0;1", "--field", "--format=json"],
    ["field-info", "--field", ""],
    ["field-info", "--field"],
    ["field-info", "--field=--"],
    ["field-info", "--fie=--"],
    ["field-info", "--field", "--", SQRT2],
    ["normalizer", "--field", SQRT2, "--matrix", "1;1;0;1", "--height=--"],
    ["wh-decomp", "--census", CENSUS_P, "--q=-1"],
    ["wh-decomp", "--census", CENSUS_P, "--q", " 3"],
    ["wh-decomp", "--census", CENSUS_P, "--q", "1_0"],
    ["wh-decomp", "--census", CENSUS_P, "--q", "x"],
    ["wh-decomp", "--census="],
    ["wh-decomp", "--census=--"],
    ["wh-decomp", "--census", CENSUS_P, "--sl", "--sl"],
    ["wh-decomp", "--census", CENSUS_P, "--sl=1"],
    ["wh-decomp", "--q", "2", "--regular"],
    ["ktop", "--field", SQRT2, "--class-number", "1", "--degree", "-1"],
    ["ktop", "--field", SQRT2],
    ["torsion-search", "--field", SQRT2, "--max-order=7", "--format=json"],
]

# the table reads "--flag=--" as the value "--", as an argparse that keeps a
# "--" value does; one that drops it reads [], which main answers with the
# usage error of the flag given no value
_DASH_VALUES = {("field-info", "--field=--"): "--field", ("wh-decomp", "--census=--"): "--census"}


def _argparse_drops_dash_value() -> bool:
    """Whether this Python's argparse reads "--x=--" as [] (3.10, 3.11 and
    earlier 3.12 releases) rather than as "--" (3.13, later 3.12 releases)."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--x")
    return parser.parse_args(["--x=--"]).x == []


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_named_build_replies_as_the_full_parser(capsys, monkeypatch, columns):
    """main's reply to each argv (exit code or SystemExit code, stdout,
    stderr) equals, byte for byte, that of a main whose ``_plain_args``
    declines every argv, so that the full parser reads them all.  Each
    handler here prints the arguments it was given, but the subcommand
    name, so where the parse succeeds the two read the same.  Some argvs
    take the table path and some are declined.  Where argparse drops a
    "--" value, the ``_DASH_VALUES`` differ, as declared there."""
    monkeypatch.setenv("COLUMNS", columns)
    for name, entry in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, entry._replace(
            run=lambda args: {k: v for k, v in vars(args).items() if k != "command"},
            exit_code=lambda payload: 0))

    def replies():
        out = []
        for argv in _ORACLE_ARGVS:
            try:
                code = ("return", main(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            written = capsys.readouterr()
            out.append((code, written.out, written.err))
        return out

    plain, read = [], cli._plain_args
    monkeypatch.setattr(cli, "_plain_args",
                        lambda name, tokens: plain.append([name, *tokens]) or read(name, tokens))
    table = replies()
    taken_by_table = [argv for argv in plain if read(argv[0], argv[1:]) is not None]
    assert {kind for (kind, _), _, _ in table} == {"return", "exit"}
    assert PLAIN_CALLS[0] in taken_by_table and _ORACLE_ARGVS[-1] in taken_by_table
    assert ["wh-decomp", "--census", CENSUS_P, "--sl=1"] in plain
    assert ["wh-decomp", "--census", CENSUS_P, "--sl=1"] not in taken_by_table
    monkeypatch.setattr(cli, "_plain_args", lambda name, tokens: None)
    drops = _argparse_drops_dash_value()
    for argv, full, read in zip(_ORACLE_ARGVS, replies(), table):
        flag = _DASH_VALUES.get(tuple(argv))
        if flag is not None and drops:
            assert read[0] == ("return", 0) and f'"{flag[2:]}": "--"' in read[1], argv
            assert full[:2] == (("exit", 2), "") and full[2].startswith(f"usage: hilmod {argv[0]} ")
            assert full[2].endswith(
                f"hilmod {argv[0]}: error: argument {flag}: expected one argument\n"), argv
        else:
            assert full == read, argv


def test_dash_value_names_the_file_dash_dash(capsys, monkeypatch, tmp_path, parser_builds):
    """"--flag=--" on a path flag reads the file named "--", on every
    Python, from the table: no parser is built."""
    fields, censuses = tmp_path / "fields", tmp_path / "censuses"
    fields.mkdir()
    censuses.mkdir()
    shutil.copy(SQRT5, fields / "--")
    shutil.copy(DATA / "census_full100.json", censuses / "--")
    monkeypatch.chdir(fields)
    assert run(capsys, "field-info", "--field=--") == (
        0, (GOLDEN / "field_info_sqrt5.json").read_text(), "")
    ktop = ["ktop", "--class-number", "1", "--degree", "2"]
    assert run(capsys, *ktop, "--field=--") == run(capsys, *ktop, "--field", SQRT5)
    monkeypatch.chdir(censuses)
    assert run(capsys, "wh-decomp", "--census=--", "--sl") == (
        0, (GOLDEN / "whdecomp_full100_sl.json").read_text(), "")
    assert taken(parser_builds) == NOTHING


def test_dash_value_for_the_full_parser_names_the_flag(capsys, monkeypatch, tmp_path):
    """A "--flag=--" value in an argv the table declines (an abbreviated
    flag, a value that is no int) reaches argparse, which reads it as "--"
    or, where it drops a "--" value, as []; main answers [] with the usage
    error argparse gives the flag with no value, not with the handler's
    error on a list."""
    shutil.copy(SQRT5, tmp_path / "--")
    monkeypatch.chdir(tmp_path)

    def reply(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    code, out, err = reply("normalizer", "--field", SQRT2, "--matrix", "1;1;0;1", "--height=--")
    assert (code, out) == (2, "") and "argument --height: " in err and "list" not in err
    if _argparse_drops_dash_value():
        code, out, err = reply("field-info", "--fie=--")
        assert (code, out) == (2, "") and err.endswith(
            "hilmod field-info: error: argument --field: expected one argument\n")
        assert reply("field-info", "--fie") == (code, out, err)
    else:
        assert reply("field-info", "--fie=--") == (
            0, (GOLDEN / "field_info_sqrt5.json").read_text(), "")


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_named_call_builds_only_the_named_parser(capsys, monkeypatch, parser_builds, columns):
    """A plain call of each subcommand, the first with no parser kept, a
    repeat and one at another COLUMNS, constructs no ArgumentParser, makes
    no gettext lookup and asks the terminal nothing.  The first argv the
    table declines builds the full parser, 7 ArgumentParsers, which prints
    the error; a repeat builds none."""
    monkeypatch.setenv("COLUMNS", columns)
    for argv in PLAIN_CALLS:
        reply = run(capsys, *argv)
        assert reply[0] == 0 and taken(parser_builds) == NOTHING, argv[0]
        assert run(capsys, *argv) == reply
        monkeypatch.setenv("COLUMNS", str(int(columns) + 1))
        assert run(capsys, *argv) == reply
        monkeypatch.setenv("COLUMNS", columns)
        assert taken(parser_builds) == NOTHING, argv[0]

    for count in (7, 0):
        with pytest.raises(SystemExit) as exc:
            main(["field-info", "--field", "x.json", "--bogus"])
        assert exc.value.code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert taken(parser_builds)["ArgumentParser"] == count
    assert run(capsys, *PLAIN_CALLS[1])[0] == 0
    assert taken(parser_builds) == NOTHING


def test_plain_calls_import_no_argparse_or_locale():
    """In a fresh interpreter, importing the CLI and one plain call of each
    subcommand load neither argparse nor gettext nor locale; --help, which
    the full parser prints, loads all three."""
    code = """
import contextlib, io, json, sys
from hilmod.cli import main
watched = ("argparse", "gettext", "locale")
loaded = [sorted(set(watched) & set(sys.modules))]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append(sorted(set(watched) & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit:
        pass
loaded.append(sorted(set(watched) & set(sys.modules)))
print(json.dumps(loaded))
"""
    out = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(PLAIN_CALLS)],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    *plain, helped = json.loads(out.stdout)
    assert plain == [[]] * (1 + len(PLAIN_CALLS))
    assert helped == ["argparse", "gettext", "locale"]


def test_kept_parsers_reply_at_the_current_width(capsys, monkeypatch, parser_builds):
    """The help and usage cases at COLUMNS 200, 40, 80 and 33, in that
    order in this interpreter, each reply as in a fresh interpreter at that
    width: the kept parser wraps its text at the width when it prints.  main
    keeps one parser, the full one."""
    child = """
import json, sys
sys.path.insert(0, sys.argv[1])
from smoke_cli import USAGE_CASES, run_in_process
replies = []
for _, argv, _ in USAGE_CASES:
    code, out, err = run_in_process(argv)
    replies.append([code, out.decode(), err])
print(json.dumps(replies))
"""
    for columns in ("200", "40", "80", "33"):
        monkeypatch.setenv("COLUMNS", columns)
        here = []
        for _, argv, _ in USAGE_CASES:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            written = capsys.readouterr()
            here.append([exc.value.code, written.out, written.err])
        fresh = subprocess.run([sys.executable, "-c", child, str(Path(__file__).parent)],
                               capture_output=True, text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": columns})
        assert fresh.returncode == 0, fresh.stderr
        assert here == json.loads(fresh.stdout), columns
    assert cli._full_parser.cache_info().currsize == 1


def test_root_searches_import_no_mpmath_or_sympy():
    code = f"""
import contextlib, io, sys
from hilmod.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["classify", "--field", {SQRT2!r}, "--matrix", "2;1;1;1"]) == 0
    assert main(["torsion-search", "--field", {SQRT2!r}, "--max-order", "12"]) == 0
assert '"class": "totally_hyperbolic"' in out.getvalue()
loaded = {{"mpmath", "sympy"}} & set(sys.modules)
assert not loaded, loaded
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
