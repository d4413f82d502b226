import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilmod.cli import ParseError, main, parse_element, parse_matrix, render_element

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


def test_parse_element_power_reduction(sqrt2):
    # theta^3 = 2*theta for x^2 - 2
    assert parse_element("g^3", sqrt2) == sqrt2.element([0, 2])
    assert parse_element("g^2", sqrt2) == sqrt2.element([2, 0])


def test_parse_element_basis_change(sqrt5):
    # (1 + theta)/2 is the second basis element of Q(sqrt5)
    assert parse_element("1/2+1/2g", sqrt5) == sqrt5.element([0, 1])


def test_parse_element_errors(sqrt2):
    for bad in ("", "1+", "1**g", "*g", "1 2", "g^", "q", "1//2"):
        with pytest.raises(ParseError):
            parse_element(bad, sqrt2)
    try:
        parse_element("1+?", sqrt2)
    except ParseError as exc:
        assert exc.position == 2


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


def test_field_info_golden(capsys):
    code, out, _ = run(capsys, "field-info", "--field", SQRT5)
    assert code == 0
    _check_golden("field_info_sqrt5.json", out)


def test_exit_code_invalid_input(capsys):
    code, out, err = run(capsys, "classify", "--field", SQRT2, "--matrix", "1+;2;3;4")
    assert code == 2 and out == "" and "bad matrix literal" in err
    code2, _, _ = run(capsys, "classify", "--field", "/nonexistent.json",
                      "--matrix", "1;0;0;1")
    assert code2 == 2


def test_exit_code_not_sl2(capsys):
    code, out, err = run(capsys, "classify", "--field", SQRT2, "--matrix", "1;0;0;2")
    assert code == 3 and out == ""


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


def test_large_generator_power():
    """g^100000 over Q(sqrt2) is 2^50000: parsed at once, not in SL_2 (exit 3)."""
    proc = subprocess.run([sys.executable, "-m", "hilmod.cli", "classify", "--field", SQRT2,
                           "--matrix", "g^100000;0;0;1"],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error:")


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


@pytest.mark.parametrize("name", ["sqrt2", "sqrt5", "cubic"])
def test_torsion_search_golden(capsys, name):
    code, out, _ = run(capsys, "torsion-search", "--field", str(DATA / f"{name}.json"),
                       "--max-order", "18")
    assert code == 0
    _check_golden(f"torsion_search_{name}_18.json", out)


def test_smoke_script():
    """tests/smoke_cli.py, the stdlib-only golden check, passes."""
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "smoke_cli.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.endswith("9/9 cases match\n")


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
