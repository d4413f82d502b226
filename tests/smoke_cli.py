"""CLI smoke check that needs only the standard library.

    python tests/smoke_cli.py

Runs ``python -m hilmod.cli`` with this interpreter on the golden cases
(the six goldens and ``torsion-search --max-order 18`` on three fields)
and compares stdout byte for byte with ``tests/golden`` and the exit code
with the one the case expects.  The mixed-element ``normalizer`` case runs
at ``--height 1000000``: a mixed element provably has no inverting
involution, so the search must end at once, with exit 4 and the same
record as at ``--height 2``.  Prints one line per case; exits 1 when any
case differs, 0 otherwise.  Useful on Python versions without pytest.
"""

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
    ("field_info_sqrt5.json", ["field-info", "--field", DATA / "sqrt5.json"], 0),
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
] + [
    (f"torsion_search_{name}_18.json",
     ["torsion-search", "--field", DATA / f"{name}.json", "--max-order", "18"], 0)
    for name in ("sqrt2", "sqrt5", "cubic")
]


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
    print(f"python {sys.version.split()[0]}: {len(CASES) - failed}/{len(CASES)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
