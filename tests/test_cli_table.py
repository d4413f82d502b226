"""The CLI on tables of good and bad inputs, in-process: every case ends
with a documented exit code (0, 2, 3 or 4) and no exception escapes
``main``; exit 2 comes with a stderr that starts with "error:", and exits
0 and 4 print one JSON object unless the format is human.  No exit-2
message passes Python's own text for a malformed JSON input through
(``_PYTHON_TEXT``): each names the shape it expected.  The zero
divisor that once made ``classify`` loop is a child-process case with a
timeout in test_cli.py."""

import itertools
import json

import pytest

from hilmod.cli import main

_FIELD_SPECS = {  # name: the text of a --field file
    "not_json": "{",
    "null": "null",
    "list": "[]",
    "string": '"x^2 - 2"',
    "no_min_poly": "{}",
    "min_poly_string": '{"min_poly": "x^2 - 2"}',
    "min_poly_numbers": '{"min_poly": [-2, 0, 1]}',
    "min_poly_nested": '{"min_poly": [["-2"], "0", "1"]}',
    "min_poly_word": '{"min_poly": ["a", "0", "1"]}',
    "zero_denominator": '{"min_poly": ["-2/0", "0", "1"]}',
    "zero_empty": '{"min_poly": []}',
    "zero": '{"min_poly": ["0", "0"]}',
    "constant": '{"min_poly": ["3"]}',
    "non_monic": '{"min_poly": ["-2", "0", "2"]}',
    "rational_coefficient": '{"min_poly": ["-1/2", "0", "1"]}',
    "repeated_root": '{"min_poly": ["4", "-4", "1"]}',
    "non_real": '{"min_poly": ["1", "0", "1"]}',
    "rational_root": '{"min_poly": ["-6", "1", "1"]}',
    "rational_roots_cubic": '{"min_poly": ["-6", "11", "-6", "1"]}',
    "basis_string": '{"min_poly": ["-2", "0", "1"], "integral_basis": "x"}',
    "basis_short": '{"min_poly": ["-2", "0", "1"], "integral_basis": [["1", "0"]]}',
    "basis_ragged": '{"min_poly": ["-2", "0", "1"], "integral_basis": [["1", "0"], ["0"]]}',
    "basis_numbers": '{"min_poly": ["-2", "0", "1"], "integral_basis": [[1, 0], [0, 1]]}',
    "basis_first_row": '{"min_poly": ["-2", "0", "1"], "integral_basis": [["0", "1"], ["1", "0"]]}',
    "basis_singular": '{"min_poly": ["-2", "0", "1"], "integral_basis": [["1", "0"], ["1", "0"]]}',
    "basis_not_order":
        '{"min_poly": ["-2", "0", "1"], "integral_basis": [["1", "0"], ["0", "1/2"]]}',
    "rationals": '{"min_poly": ["0", "1"]}',
    "sqrt2": '{"min_poly": ["-2", "0", "1"]}',
    "sqrt5": '{"min_poly": ["-5", "0", "1"], "integral_basis": [["1", "0"], ["1/2", "1/2"]]}',
    "cubic": '{"min_poly": ["1", "-2", "-1", "1"]}',
    # (x^2 - 2)(x^2 - 3) has no rational root, so it loads
    "reducible_quartic": '{"min_poly": ["6", "0", "-5", "0", "1"]}',
}

_FIELD_ARGVS = [  # each is followed by --field FILE
    ["field-info"],
    ["field-info", "--format", "human"],
    ["classify", "--matrix", "1;1;0;1"],
    ["classify", "--matrix", "0;-1;1;g"],
    ["classify", "--matrix", "1;0;0;2"],
    ["classify", "--matrix", "1+;2;3;4"],
    ["classify", "--matrix", "1/0;0;0;1"],
    ["normalizer", "--matrix", "2;1;1;1", "--height", "1"],
    ["normalizer", "--matrix", "0;-1;1;g", "--height", "0"],
    ["normalizer", "--matrix", "1;1;0;1", "--height", "-1"],
    ["torsion-search", "--max-order", "6"],
    ["torsion-search", "--max-order", "0"],
    ["ktop", "--class-number", "1", "--degree", "2"],
]

_CENSUSES = [
    "{", "null", "[]", '"x"', "{}",
    '{"n": "2"}', '{"n": true}', '{"n": 0}', '{"n": -1}', '{"n": 101}', '{"n": 1}', '{"n": 2}',
    '{"n": 2, "p": {"finite": 1}, "h1": "infinite", "hp2": "unknown"}',
    '{"n": 2, "p": "lots"}', '{"n": 2, "p": {"finite": -1}}', '{"n": 2, "p": {}}',
    '{"n": 2, "finite": "x"}', '{"n": 2, "finite": [{"order": 1, "count": 1}]}',
    '{"n": 2, "finite": [{"order": 2}]}', '{"n": 2, "finite": [[2, 1]]}',
    '{"n": 2, "m1": [1, 2, 3]}', '{"n": 3, "m1": [1], "m2": ["infinite", "unknown"]}',
]

_CENSUS_FLAGS = [[], ["--sl"], ["--regular", "--q", "0"],
                 ["--sl", "--nk-finite-exponent", "--q", "-2"]]

_FINITE_CENSUSES = ['[{"order": 2, "count": 1}, {"order": 3, "count": 2}]', "{",
                    '[{"order": 1, "count": 1}]', '[{"order": 2, "count": -1}]', '{"order": 2}']

_CUSP_DIMS = ['[{"p": 1, "r": 1, "dim": 2}]', '[{"p": 1}]', '[{"p": 1, "r": 1, "dim": -1}]', "[1]"]


_PYTHON_TEXT = ("NoneType", "subscriptable", "list indices", "string indices")


def _check(capsys, argv: list[str]) -> None:
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv}: {exc!r} escaped main")
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 2:
        assert out == "" and err.startswith("error:"), (argv, err)
        assert not any(text in err for text in _PYTHON_TEXT), (argv, err)
    if code in (0, 4) and "human" not in argv:
        assert isinstance(json.loads(out), dict), argv


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    return str(path)


def test_field_specs_and_subcommands(capsys, tmp_path):
    for name, spec in _FIELD_SPECS.items():
        field = _write(tmp_path, name, spec)
        for argv in _FIELD_ARGVS:
            _check(capsys, argv + ["--field", field])


def test_wh_decomp_censuses(capsys, tmp_path):
    for k, census in enumerate(_CENSUSES):
        path = _write(tmp_path, f"census{k}", census)
        for flags in _CENSUS_FLAGS:
            _check(capsys, ["wh-decomp", "--census", path, *flags])


def test_ktop_inputs(capsys, tmp_path):
    field = _write(tmp_path, "sqrt2", _FIELD_SPECS["sqrt2"])
    finite = [[]] + [["--finite-census", _write(tmp_path, f"finite{k}", t)]
                     for k, t in enumerate(_FINITE_CENSUSES)]
    cusp = [[]] + [["--cusp-dims", _write(tmp_path, f"cusp{k}", t)]
                   for k, t in enumerate(_CUSP_DIMS)]
    for h, fc, cd, q in itertools.product(("1", "2", "0", "-1"), finite, cusp, ("0", "2", "-1")):
        _check(capsys, ["ktop", "--field", field, "--class-number", h, "--degree", q, *fc, *cd])


def test_malformed_json_names_expected_shape(capsys, tmp_path):
    """null, [] and {} as a field spec or a census: exit 2 with a message
    that names the expected object and what was found or is missing."""
    cases = [
        (["field-info", "--field"], "null", "got null"),
        (["field-info", "--field"], "[]", "got a list"),
        (["field-info", "--field"], "{}", "missing key 'min_poly'"),
        (["wh-decomp", "--census"], "null", "got null"),
        (["wh-decomp", "--census"], "[]", "got a list"),
        (["wh-decomp", "--census"], "{}", "missing key 'n'"),
    ]
    for k, (argv, text, found) in enumerate(cases):
        assert main(argv + [_write(tmp_path, f"spec{k}", text)]) == 2
        err = capsys.readouterr().err
        key = '"min_poly"' if argv[0] == "field-info" else '"n"'
        assert "expected an object {" in err and key in err and found in err, err
