"""CLI smoke check that needs only the standard library.

    python tests/smoke_cli.py

Runs ``python -m hilmod.cli`` with this interpreter on the golden cases
(six goldens, ``classify_mixed.json`` once more from a matrix literal
with whitespace around every part of its terms, ``field-info`` and
``torsion-search`` at its default order bound on the sextic
``ct13.json``, ``classify`` of a totally hyperbolic matrix over
``ct37.json``, Q(cos(2pi/37)) of degree 18, and ``field-info`` and
``torsion-search --max-order 18`` on three fields and on
``sqrt2_power_basis.json``, Q(sqrt 2) with its power basis given
explicitly, against the Q(sqrt 2) goldens) and
compares stdout byte for byte with ``tests/golden`` and the exit code
with the one the case expects.  The mixed-element ``normalizer`` case runs
at ``--height 1000000``: a mixed element provably has no inverting
involution, so the search must end at once, with exit 4 and the same
record as at ``--height 2``.  ``whdecomp_full100_sl.json`` is the largest
census, every slot filled, under ``wh-decomp --sl``.  Prints one line per
case.

It runs each help and usage case (``USAGE_CASES``) the same way at
``COLUMNS=80`` and compares the exit code, and stdout for help or stderr
for a usage error, with its golden (``usage_golden``: ``py313/`` from
Python 3.13 where one is kept there); the other stream must be empty.
Prints one line per case and one for all of them.

Then it runs the golden cases, each of the first ten followed by one
help and usage case (``INTERLEAVED``), through ``hilmod.cli.main`` in
this interpreter at ``COLUMNS=80``, forward, then ``REFINE``, then
reversed, and checks every reply the same way: ``main`` keeps the fields
it has loaded, the literals it has parsed and the parsers it has built
between calls, and no reply may depend on the calls before it.  Prints
one line for that run, with each reply that differs, and one line for
the Q(sqrt 2) field ``main`` kept through ``REFINE``, which must equal a
fresh load of it: no query changes a loaded field.  Exits 1 when any
case, reply or field differs, 0 otherwise.  Useful on Python versions
without pytest.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DATA, GOLDEN = TESTS / "data", TESTS / "golden"
SRC = TESTS.parent / "src"

CASES = [  # (golden, argv, expected exit code)
    ("classify_mixed.json",
     ["classify", "--field", DATA / "sqrt2.json", "--matrix=1+1g;1+1g;2;1+1g"], 0),
    ("classify_mixed.json",  # whitespace around every part of a term, trailing included
     ["classify", "--field", DATA / "sqrt2.json", "--matrix= 1 + 1g ; 1+1*g ; 2 ; 1 + 1g "], 0),
    ("ktop_even.json",
     ["ktop", "--field", DATA / "sqrt2.json", "--class-number", "1",
      "--finite-census", DATA / "fc.json", "--degree", "0"], 0),
    ("normalizer_hp.json",
     ["normalizer", "--field", DATA / "sqrt2.json", "--matrix=1+1g;0;0;-1+1g",
      "--height", "2"], 0),
    ("normalizer_mixed.json",
     ["normalizer", "--field", DATA / "sqrt2.json", "--matrix=1+1g;1+1g;2;1+1g",
      "--height", "1000000"], 4),
    ("whdecomp_p.json", ["wh-decomp", "--census", DATA / "census_p.json", "--q", "1"], 0),
    ("whdecomp_full100_sl.json",
     ["wh-decomp", "--census", DATA / "census_full100.json", "--sl"], 0),
] + [
    (f"field_info_{name}.json", ["field-info", "--field", DATA / f"{name}.json"], 0)
    for name in ("sqrt2", "sqrt5", "cubic", "ct13")
] + [
    (f"torsion_search_{name}_18.json",
     ["torsion-search", "--field", DATA / f"{name}.json", "--max-order", "18"], 0)
    for name in ("sqrt2", "sqrt5", "cubic")
] + [
    ("torsion_search_ct13.json", ["torsion-search", "--field", DATA / "ct13.json"], 0),
    # degree 18: Tr^2 - 4 = 5 is no square, decided at a residue map
    ("classify_ct37.json",
     ["classify", "--field", DATA / "ct37.json", "--matrix", "2;1;1;1"], 0),
] + [  # the power basis given explicitly must answer as the default basis does
    ("field_info_sqrt2.json", ["field-info", "--field", DATA / "sqrt2_power_basis.json"], 0),
    ("torsion_search_sqrt2_18.json",
     ["torsion-search", "--field", DATA / "sqrt2_power_basis.json", "--max-order", "18"], 0),
]

COMMAND_NAMES = ["field-info", "classify", "normalizer", "torsion-search", "wh-decomp", "ktop"]

# (golden, argv, exit code): --help writes the golden to stdout, a usage
# error writes it to stderr
USAGE_CASES = [("help.txt", ["--help"], 0)] + [
    (f"help_{name}.txt", [name, "--help"], 0) for name in COMMAND_NAMES
] + [
    ("usage_unknown_command.txt", ["no-such-command"], 2),
    ("usage_missing_field.txt", ["classify", "--matrix", "1;0;0;1"], 2),
    ("usage_unrecognized_argument.txt", ["field-info", "--field", "x.json", "--bogus"], 2),
]

# each golden case of the first ten followed by one help and usage case:
# help, an unknown command, a missing --field and leftover arguments fall
# between calls that parse
INTERLEAVED = [case for pair in zip(CASES, USAGE_CASES) for case in pair] \
    + CASES[len(USAGE_CASES):]

# a classify whose sign decisions refine an embedding of Q(sqrt 2) to about 10^4 bits
REFINE = ["classify", "--field", DATA / "sqrt2.json", "--matrix=1+g^20000;g^20000;1;1"]


def usage_golden(name: str) -> Path:
    """The golden of a help or usage text at COLUMNS=80.  From Python 3.13
    argparse wraps a usage line only between whole options, and where that
    changes the text its rendering is kept under ``py313/``."""
    newer = GOLDEN / "py313" / name
    return newer if sys.version_info >= (3, 13) and newer.exists() else GOLDEN / name


def reply_matches(golden: str, code: int, got: int, out: bytes, err: bytes) -> bool:
    """Whether a reply (exit code ``got``, stdout, stderr) is the case's:
    for a help or usage case (a ``.txt`` golden) its text on stdout for
    help or stderr for a usage error, the other stream empty; else its
    golden on stdout."""
    if not golden.endswith(".txt"):
        return got == code and out == (GOLDEN / golden).read_bytes()
    written, silent = (out, err) if code == 0 else (err, out)
    return got == code and silent == b"" and written == usage_golden(golden).read_bytes()


def usage_failures(env) -> list[str]:
    """The golden of each ``USAGE_CASES`` case whose reply, as a child
    process at COLUMNS=80, differs from it; prints one line per case."""
    failed = []
    for golden, argv, code in USAGE_CASES:
        proc = subprocess.run([sys.executable, "-m", "hilmod.cli", *argv], capture_output=True,
                              env={**env, "COLUMNS": "80"}, timeout=60)
        ok = reply_matches(golden, code, proc.returncode, proc.stdout, proc.stderr)
        if not ok:
            failed.append(golden)
        print(f"{'ok  ' if ok else 'FAIL'} {usage_golden(golden).relative_to(GOLDEN)}"
              + ("" if ok else f" (exit {proc.returncode}) {proc.stderr.decode()[-300:]}"))
    return failed


def run_in_process(argv) -> tuple[int, bytes, str]:
    """(exit code, stdout, stderr) of one call of ``hilmod.cli.main``; the
    code of its SystemExit after help or a usage error."""
    from hilmod.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue()


def in_process_failures(cases) -> list[str]:
    """The golden of each case whose reply through ``run_in_process``,
    called in order at the caller's ``COLUMNS``, is not the case's
    (``reply_matches``)."""
    failed = []
    for golden, argv, code in cases:
        got, out, err = run_in_process(argv)
        if not reply_matches(golden, code, got, out, err.encode()):
            failed.append(f"{golden} (exit {got})")
    return failed


def kept_field_unchanged(spec) -> bool:
    """Whether the field ``main`` keeps for ``spec`` equals a fresh load of
    it in every attribute, its ``root_intervals`` among them, but the
    ``functools.cached_property`` memos, which are functions of the spec."""
    from hilmod.cli import _load_field
    from hilmod.numfield import NumberField

    def state(field):
        return {k: v for k, v in vars(field).items()
                if not isinstance(getattr(NumberField, k, None), functools.cached_property)}

    kept = _load_field(str(spec))
    fresh = NumberField.from_json(json.loads(Path(spec).read_text()))
    return kept is not fresh and state(kept) == state(fresh)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    failed = 0
    for golden, argv, code in CASES:
        try:
            proc = subprocess.run([sys.executable, "-m", "hilmod.cli", *map(str, argv)],
                                  capture_output=True, env=env, timeout=120)
        except subprocess.TimeoutExpired:
            failed += 1
            print(f"FAIL {golden} (no reply within 120 s)")
            continue
        ok = proc.returncode == code and proc.stdout == (GOLDEN / golden).read_bytes()
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {golden}"
              + ("" if ok else f" (exit {proc.returncode}) {proc.stderr.decode()[-300:]}"))
    usage_failed = usage_failures(env)
    print(f"{'ok  ' if not usage_failed else 'FAIL'} help and usage at COLUMNS=80: "
          f"{len(USAGE_CASES) - len(usage_failed)}/{len(USAGE_CASES)} match")
    sys.path.insert(0, str(SRC))
    os.environ["COLUMNS"] = "80"
    sequence = INTERLEAVED + INTERLEAVED[::-1]
    differ = in_process_failures(INTERLEAVED)
    code, _, err = run_in_process(REFINE)
    if code != 0:
        differ.append(f"REFINE (exit {code}) {err[-300:]}")
    unchanged = kept_field_unchanged(REFINE[2])
    differ += in_process_failures(INTERLEAVED[::-1])
    print(f"{'ok  ' if not differ else 'FAIL'} in one interpreter, forward, REFINE, reversed: "
          f"{len(sequence) - len(differ)}/{len(sequence)} replies match"
          + "".join(f"\n     {d}" for d in differ))
    print(f"{'ok  ' if unchanged else 'FAIL'} the Q(sqrt 2) field kept through REFINE "
          "equals a fresh load")
    print(f"python {sys.version.split()[0]}: {len(CASES) - failed}/{len(CASES)} cases match")
    return 1 if failed or usage_failed or differ or not unchanged else 0


if __name__ == "__main__":
    sys.exit(main())
