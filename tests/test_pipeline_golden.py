"""Pinned `afkit --format json pipeline` output and `--emit-diagram` files.

Each case is a presentation of a finite group, diagonal or upper-bidiagonal
(U @ diag(d) with U unimodular), at width 8.  The expected stdout and diagram
file live byte for byte under tests/golden/pipeline/, so a change that means
to leave the pipeline's answers alone shows here if it does not.

Regenerate (only when an output change is intended, and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_pipeline_golden.py --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

from afkit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "pipeline"

# name -> (relation rows, prime)
CASES = {
    "g1-diag": ([[6]], 5),
    "g1-bidiag": ([[-9]], 3),
    "g2-diag": ([[4, 0], [0, 15]], 2),
    "g2-bidiag": ([[3, 10], [0, 5]], 3),  # [[1, 2], [0, 1]] @ diag(3, 5)
    "g4-diag": ([[2, 0, 0, 0], [0, 9, 0, 0], [0, 0, 7, 0], [0, 0, 0, 12]], 5),
    "g4-bidiag": ([[5, -3, 0, 0], [0, 3, 14, 0], [0, 0, 7, -4], [0, 0, 0, 4]], 2),  # U @ diag(5, 3, 7, 4)
}
WIDTH = 8


def run_case(name, workdir: Path):
    rows, p = CASES[name]
    group = workdir / f"{name}.json"
    group.write_text(json.dumps({"generators": len(rows), "relations": rows}))
    diagram = workdir / f"{name}.diagram.json"
    argv = ["--format", "json", "pipeline", "--group", str(group), "--prime", str(p),
            "--width", str(WIDTH), "--emit-diagram", str(diagram)]
    return main(argv), diagram.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pipeline_output_matches_golden(name, tmp_path, capsys):
    code, diagram = run_case(name, tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out.json").read_text()
    assert diagram == (GOLDEN / f"{name}.diagram.json").read_text()


def regenerate():
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, diagram = run_case(name, Path(tmp))
            if code != 0:
                raise SystemExit(f"{name}: pipeline exited {code}")
            (GOLDEN / f"{name}.out.json").write_text(buf.getvalue())
            (GOLDEN / f"{name}.diagram.json").write_text(diagram)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    regenerate()
