"""Each CLI command loads only the afkit modules it uses.

Every case runs in a fresh interpreter, since this process has long since
imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BASE = {"afkit", "afkit.cli", "afkit.abelian"}
PIPELINE = {"afkit.invariants", "afkit.rordam", "afkit.limits", "afkit.dimension"}

# imports the CLI and, given arguments, runs main on them with its output
# discarded; prints [exit code, loaded afkit modules]
PROBE = """
import contextlib, io, json, sys
from afkit.cli import main
code = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:]) if sys.argv[1:] else None
    except SystemExit as e:
        code = e.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "afkit")]))
"""

FILES = {
    "z2": {"generators": 1, "relations": [[2]]},
    "system": {"kind": "stationary", "matrices": [[[2]]], "cone": "simplicial", "unit": [1]},
    "diagram": {"levels": [{"l": 1, "w": [1], "m": [[2]]}, {"l": 1, "w": [2]}]},
    "tree": {"children": [{"children": []}]},
}


def loaded(tmp_path, argv) -> tuple:
    for name, data in FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [a.format(dir=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    code, modules = json.loads(done.stdout)
    return code, set(modules)


@pytest.mark.parametrize("argv, code, extra", [
    pytest.param([], None, set(), id="import"),
    pytest.param(["--help"], 0, set(), id="help"),
    pytest.param(["group", "{dir}/z2.json"], 0, set(), id="group"),
    pytest.param(["schreier", "--target", "{dir}/z2.json", "--images", "[[1],[1]]"], 0, {"afkit.schreier"},
                 id="schreier"),
    pytest.param(["eplag", "tree", "--tree", "{dir}/tree.json", "--p", "3"], 0, {"afkit.eplag"}, id="eplag"),
    pytest.param(["rordam", "--group", "{dir}/z2.json"], 0, {"afkit.rordam"}, id="rordam"),
    # Z[1/2] is not finitely generated: exit 3 maps a limits error with dimension unloaded
    pytest.param(["limits", "{dir}/system.json"], 3, {"afkit.limits"}, id="limits"),
    pytest.param(["diagram", "k0", "{dir}/diagram.json"], 0, {"afkit.limits", "afkit.dimension"}, id="diagram"),
    pytest.param(["ehs", "--system", "{dir}/system.json", "--depth", "2"], 0, {"afkit.limits", "afkit.dimension"},
                 id="ehs"),
    # eplag (and fractions) only for a labeled-graph K0, which neither command builds
    pytest.param(["pipeline", "--group", "{dir}/z2.json", "--prime", "3"], 0, PIPELINE, id="pipeline"),
    pytest.param(["invariant", "{dir}/z2.json", "--prime", "3", "--compare", "{dir}/z2.json"], 0,
                 {"afkit.invariants"}, id="invariant"),
])
def test_command_loads_only_its_modules(tmp_path, argv, code, extra):
    assert loaded(tmp_path, argv) == (code, BASE | extra)

