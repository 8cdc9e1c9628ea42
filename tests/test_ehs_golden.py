"""Pinned `afkit --format json ehs` output.

Each case is an ordered system, an optional stationary endomorphism and the
extra flags of one `ehs` run.  The expected stdout lives byte for byte under
tests/golden/ehs/, together with the exit code each case expects, so a change
that means to leave the realization's answers alone shows here if it does not.

Regenerate (only when an output change is intended, and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_ehs_golden.py --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

from afkit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "ehs"

FIBONACCI = [[[1, 1], [1, 0]]]

# name -> (system, endomorphism or None, extra flags, exit code)
CASES = {
    "fibonacci": ({"kind": "stationary", "matrices": FIBONACCI, "unit": [1, 1]}, None, [], 0),
    # (-233, 378) changes sign on every push until stage 8
    "fibonacci-late-unit-b2": (
        {"kind": "stationary", "matrices": FIBONACCI, "unit": [-233, 378]}, None, ["--bound", "2"], 3),
    "fibonacci-late-unit-b48": (
        {"kind": "stationary", "matrices": FIBONACCI, "unit": [-233, 378]}, None, ["--bound", "48"], 0),
    "integers": ({"kind": "stationary", "matrices": [[[1]]], "unit": [1]}, None, [], 0),
    "integers-times-3": (
        {"kind": "stationary", "matrices": [[[1]]], "unit": [1]}, {"kind": "same_stage", "matrix": [[3]]}, [], 0),
    "prefix-tail-period-2": (
        {"kind": "prefix+tail", "period": 2, "matrices": [[[1], [1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]],
         "unit": [1]}, None, [], 0),
    "primitive-3x3": (
        {"kind": "stationary", "matrices": [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]], "unit": [1, 1, 1]}, None, [], 0),
    "strict-cross-identity": (
        {"kind": "stationary", "matrices": [[[2, 0], [1, -1]]], "cone": "strict_first", "unit": [1, 0]},
        {"kind": "cross_stage", "matrix": [[1, 0], [0, 1]]}, [], 0),
}


def run_case(name, workdir: Path):
    system, endo, flags, _ = CASES[name]
    path = workdir / f"{name}.system.json"
    path.write_text(json.dumps(system))
    argv = ["--format", "json", "ehs", "--system", str(path), *flags]
    if endo is not None:
        endo_path = workdir / f"{name}.endo.json"
        endo_path.write_text(json.dumps(endo))
        argv += ["--endo", str(endo_path)]
    return main(argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_ehs_output_matches_golden(name, tmp_path, capsys):
    code = run_case(name, tmp_path)
    assert code == CASES[name][3]
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out.json").read_text()


def regenerate():
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run_case(name, Path(tmp))
            if code != CASES[name][3]:
                raise SystemExit(f"{name}: ehs exited {code}, expected {CASES[name][3]}")
            (GOLDEN / f"{name}.out.json").write_text(buf.getvalue())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    regenerate()
