"""CLI tests: exit codes, JSON round trips, deterministic output."""

import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit import cli, invariants
from afkit.abelian import FgAbelianGroup
from afkit.cli import main
from afkit.invariants import KirchbergInvariant
from helpers import subparsers


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


Z6 = {"generators": 1, "relations": [[6]]}
Z2 = {"generators": 1, "relations": [[2]]}
Z3 = {"generators": 1, "relations": [[3]]}
UHF2 = {
    "levels": [
        {"l": 1, "w": [1], "m": [[2]]},
        {"l": 1, "w": [2], "m": [[2]]},
        {"l": 1, "w": [4]},
    ],
    "tail": [[[2]]],
}
SIMPLICIAL_ONE = {"kind": "stationary", "matrices": [[[1]]], "unit": [1]}


def test_group_reports_factors(tmp_path, capsys):
    path = write(tmp_path, "g.json", Z6)
    code, out, _ = run(capsys, ["--format", "json", "group", path])
    assert code == 0
    report = json.loads(out)
    assert report["invariant_factors"] == [6]
    assert report["divisibility"]["5"]["uniquely_divisible"] is True


def test_group_text_format(tmp_path, capsys):
    path = write(tmp_path, "g.json", Z6)
    code, out, _ = run(capsys, ["group", path])
    assert code == 0
    assert "invariant_factors" in out


def test_group_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["group", str(path)])
    assert code == 2
    assert "line" in err


def test_group_missing_field(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"relations": []})
    code, _, err = run(capsys, ["group", path])
    assert code == 2
    assert "generators" in err


def test_limits_fg(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"kind": "stationary", "matrices": [[[1, 0], [0, 0]]]})
    code, out, _ = run(capsys, ["--format", "json", "limits", path])
    assert code == 0
    assert json.loads(out)["limit_invariant_factors"] == [0]


def test_limits_depth_exceeded(tmp_path, capsys):
    # doubling: the limit Z[1/2] is proved not finitely generated
    path = write(tmp_path, "s.json", {"kind": "stationary", "matrices": [[[2]]]})
    code, out, _ = run(capsys, ["--format", "json", "limits", path])
    assert code == 3
    assert "not finitely generated" in json.loads(out)["error"]


def test_limits_nilpotent_shift_is_zero(tmp_path, capsys):
    # the 10 x 10 shift kills everything after ten steps
    shift = [[1 if j == i + 1 else 0 for j in range(10)] for i in range(10)]
    path = write(tmp_path, "s.json", {"kind": "stationary", "matrices": [shift]})
    code, out, _ = run(capsys, ["--format", "json", "limits", path])
    assert code == 0
    assert json.loads(out)["limit_invariant_factors"] == []


def test_limits_prefix_and_tail(tmp_path, capsys):
    # doubling once, then the identity: the limit is Z
    path = write(tmp_path, "s.json", {"kind": "prefix+tail", "matrices": [[[2]], [[1]]], "period": 1})
    code, out, _ = run(capsys, ["--format", "json", "limits", path])
    assert code == 0
    assert json.loads(out)["limit_invariant_factors"] == [0]


@pytest.mark.parametrize("data, message", [
    pytest.param({"kind": "prefix+tail", "matrices": [[[2]], [[1]]], "period": 3},
                 "period must be between 1 and the matrix count", id="period-too-long"),
    pytest.param({"kind": "prefix+tail", "matrices": [[[2]], [[1]]], "period": 0},
                 "period must be between 1 and the matrix count", id="period-zero"),
    pytest.param({"kind": "cyclic", "matrices": [[[1]]]}, "unknown kind 'cyclic'", id="unknown-kind"),
])
def test_limits_bad_system_exits_2(tmp_path, capsys, data, message):
    path = write(tmp_path, "s.json", data)
    code, _, err = run(capsys, ["limits", path])
    assert code == 2
    assert message in err


def test_schreier(tmp_path, capsys):
    path = write(tmp_path, "t.json", Z2)
    code, out, _ = run(
        capsys,
        ["--format", "json", "schreier", "--target", path, "--images", "[[1],[1]]",
         "--word-bound", "3", "--gen-bound", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 3
    assert set(report["generators"]) == {"x0^2", "x0.x1", "x1.x0^-1"}
    assert report["bound_reached"] is False


def test_schreier_keys_each_candidate_once_and_checks_each_generator(tmp_path, capsys, monkeypatch):
    # a count guard, not a timer: F_2 -> Z/5 has 5 cosets, all within the
    # bound, so the walk tries 2r = 4 letters on e and 2r - 1 = 3 on each of
    # the 4 other representatives, and emits 5 * (2 - 1) + 1 = 6 generators
    from afkit import schreier

    keys, tested = [], []
    kernel_oracle, contains = schreier.kernel_oracle, schreier.SubgroupOracle.__contains__

    def counted_kernel_oracle(target, images):
        h = kernel_oracle(target, images)
        return schreier.SubgroupOracle(lambda w: keys.append(w) or h.key(w), h.ambient_rank)

    monkeypatch.setattr(schreier, "kernel_oracle", counted_kernel_oracle)
    monkeypatch.setattr(schreier.SubgroupOracle, "__contains__", lambda h, w: tested.append(w) or contains(h, w))
    path = write(tmp_path, "t.json", {"generators": 1, "relations": [[5]]})
    code, out, _ = run(capsys, ["--format", "json", "schreier", "--target", path, "--images", "[[1],[2]]",
                                "--word-bound", "4", "--gen-bound", "2"])
    report = json.loads(out)
    assert code == 0 and report["count"] == 6 and report["bound_reached"] is False
    candidates = 4 + 4 * 3
    assert len(keys) == 1 + candidates + 6  # 1: the identity's key, computed once
    assert len(tested) == 6


def test_rordam_pass_and_fail(tmp_path, capsys):
    g = write(tmp_path, "g.json", Z2)
    code, out, _ = run(capsys, ["--format", "json", "rordam", "--group", g])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_diagram_validate_good(tmp_path, capsys):
    path = write(tmp_path, "d.json", UHF2)
    code, out, _ = run(capsys, ["--format", "json", "diagram", "validate", path])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_diagram_validate_bad(tmp_path, capsys):
    bad = {
        "levels": [
            {"l": 1, "w": [1], "m": [[2]]},
            {"l": 1, "w": [5]},
        ]
    }
    path = write(tmp_path, "d.json", bad)
    code, out, _ = run(capsys, ["--format", "json", "diagram", "validate", path])
    assert code == 1
    report = json.loads(out)
    assert any("condition 5" in v for v in report["violations"])


def test_diagram_k0(tmp_path, capsys):
    path = write(tmp_path, "d.json", UHF2)
    code, out, _ = run(capsys, ["--format", "json", "diagram", "k0", path])
    assert code == 0
    report = json.loads(out)
    assert report["levels"][2]["multimatrix_dims"] == [4]


def test_diagram_k0_one_level(tmp_path, capsys):
    # a valid diagram of one level: its limit is that level's Z
    path = write(tmp_path, "d.json", {"levels": [{"l": 1, "w": [1]}]})
    code, out, _ = run(capsys, ["--format", "json", "diagram", "k0", path])
    assert code == 0
    assert json.loads(out) == {"levels": [{"rank": 1, "multimatrix_dims": [1]}], "cone": "simplicial", "unit": [1]}


def test_diagram_k0_validates_once(tmp_path, capsys, monkeypatch):
    from afkit import dimension

    calls, validate = [], dimension.validate_diagram
    monkeypatch.setattr(dimension, "validate_diagram", lambda d: calls.append(d) or validate(d))
    code, out, _ = run(capsys, ["--format", "json", "diagram", "k0", write(tmp_path, "d.json", UHF2)])
    assert (code, len(calls)) == (0, 1)
    # the cone and unit of the ordered system diagram_to_system builds, which validates again
    D = dimension.diagram_to_system(cli.diagram_from_json(UHF2, "d.json"))
    report = json.loads(out)
    assert (report["cone"], report["unit"]) == (D.cone, list(D.unit.vector))


def test_diagram_dot_deterministic(tmp_path, capsys):
    path = write(tmp_path, "d.json", UHF2)
    code1, out1, _ = run(capsys, ["diagram", "dot", path])
    code2, out2, _ = run(capsys, ["diagram", "dot", path])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "digraph" in out1


def test_diagram_telescope_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "d.json", UHF2)
    code, out, _ = run(capsys, ["diagram", "telescope", path, "--cuts", "0,2"])
    assert code == 0
    emitted = json.loads(out)
    assert emitted["levels"][0]["m"] == [[4]]
    assert emitted["tail"] == [[[2]]]  # cut at the last level, the tail stays
    # emitted JSON re-parses and revalidates
    path2 = write(tmp_path, "d2.json", emitted)
    code2, out2, _ = run(capsys, ["--format", "json", "diagram", "validate", path2])
    assert code2 == 0 and json.loads(out2)["valid"]


INVALID_DIAGRAM = {"levels": [{"l": 1, "w": [1], "m": [[2]]}, {"l": 1, "w": [5], "m": [[-3]]}, {"l": 1, "w": [7]}]}
INVALID_DIAGRAM_VIOLATIONS = [
    "condition 5 at level 1: weight of vertex 0 is 5, path count gives 2",
    "condition 4 at level 1: negative multiplicity",
    "condition 5 at level 2: weight of vertex 0 is 7, path count gives -15",
]


def own_flags(action, cuts, dot):
    """The flags a diagram action reads: --out for dot, --cuts for telescope."""
    return {"dot": ["--out", str(dot)], "telescope": ["--cuts", cuts]}.get(action, [])


@pytest.mark.parametrize("action", ["validate", "k0", "dot", "telescope"])
def test_diagram_actions_report_an_invalid_diagram(tmp_path, capsys, action):
    # only validate exists to describe an invalid diagram; the rest refuse it with the same report
    path = write(tmp_path, "d.json", INVALID_DIAGRAM)
    dot = tmp_path / "d.dot"
    code, out, _ = run(capsys, ["--format", "json", "diagram", action, path, *own_flags(action, "0,2", dot)])
    assert code == 1
    assert json.loads(out) == {"valid": False, "violations": INVALID_DIAGRAM_VIOLATIONS}
    assert not dot.exists()


@pytest.mark.parametrize("action", ["validate", "k0", "dot", "telescope"])
def test_diagram_actions_refuse_a_tail_vertex_of_weight_zero(tmp_path, capsys, action):
    # the tail's zero column gives its vertex the path count 0
    path = write(tmp_path, "d.json", {"levels": [{"l": 1, "w": [1], "m": [[2]]}, {"l": 1, "w": [2]}],
                                      "tail": [[[0]]]})
    code, out, _ = run(capsys, ["--format", "json", "diagram", action, path,
                                *own_flags(action, "0,1", tmp_path / "d.dot")])
    assert code == 1
    assert json.loads(out) == {"valid": False,
                               "violations": ["condition 3 in tail: incidence 0 has no edge into vertex 0"]}


RAGGED_SYSTEM = {"kind": "stationary", "matrices": [[[1, 0], [0]]], "cone": "simplicial", "unit": [1, 1]}
MALFORMED_DIAGRAMS = {
    "no-levels": ({"tail": []}, "levels"),
    "no-size": ({"levels": [{"w": [1]}]}, "levels[0]: missing field 'l'"),
    "ragged": ({"levels": [{"l": 1, "w": [1], "m": [[1, 1], [1]]}, {"l": 2, "w": [1, 1]}]}, "levels[0].m: ragged"),
    "top-level-list": ([], "in.json: expected a JSON object"),
    "levels-string": ({"levels": "x"}, "levels: expected a list"),
    "level-number": ({"levels": [1]}, "levels[0]: expected a JSON object"),
    "incidence-number": ({"levels": [{"l": 1, "w": [1], "m": 5}]}, "levels[0].m: expected a list"),
    "tail-number": ({"levels": [{"l": 1, "w": [1]}], "tail": 3}, "tail: expected a list"),
}


@pytest.mark.parametrize(
    "argv, data, field",
    [
        pytest.param(["diagram", action], data, field, id=f"diagram-{action}-{name}")
        for action in ("validate", "k0", "dot", "telescope")
        for name, (data, field) in MALFORMED_DIAGRAMS.items()
    ]
    + [
        pytest.param(["limits"], RAGGED_SYSTEM, "ragged", id="limits-ragged"),
        pytest.param(["limits"], {"kind": "stationary", "matrices": 5}, "matrices: expected a list",
                     id="limits-matrices-number"),
        pytest.param(["group"], {"generators": 2, "relations": 5}, "relations: expected a list",
                     id="group-relations-number"),
        pytest.param(["eplag", "fingerprint", "--graph"], {"vertices": {"a": 3}, "P": 5}, "P: expected a list",
                     id="eplag-P-number"),
        pytest.param(["ehs", "--system"], RAGGED_SYSTEM, "ragged", id="ehs-ragged"),
        pytest.param(["ehs", "--system"],
                     {"kind": "stationary", "matrices": [[[1, 0], [0, 1]]], "unit": [1]},
                     "order unit needs 2 entries", id="ehs-unit-length"),
        pytest.param(["ehs", "--system"], {"kind": "stationary", "matrices": [[[1]]], "unit": 5},
                     "unit: expected a list", id="ehs-unit-number"),
        pytest.param(["ehs", "--system"],
                     {"kind": "stationary", "matrices": [[[1, 1], [1, 2]]], "cone": "strict_first",
                      "unit": [1, 0]},
                     "row 0", id="ehs-strict-row-mixes"),
        pytest.param(["ehs", "--system"],
                     {"kind": "stationary", "matrices": [[[-1]]], "cone": "strict_first", "unit": [1]},
                     "row 0", id="ehs-strict-scale-negative"),
        pytest.param(["eplag", "fingerprint", "--graph"], {"vertices": ["r"]}, "JSON object",
                     id="eplag-vertices-list"),
        pytest.param(["eplag", "member", "--graph", "{graph}", "--target"], [1], "JSON object",
                     id="eplag-target-list"),
        pytest.param(["eplag", "member", "--graph", "{graph}", "--target"], {"zz": "1/3"},
                     "unknown vertex 'zz'", id="eplag-target-unknown-vertex"),
        pytest.param(["eplag", "member", "--graph", "{graph}", "--target"], {"zz": 0},
                     "unknown vertex 'zz'", id="eplag-target-zero-on-unknown-vertex"),
        pytest.param(["eplag", "fingerprint", "--graph"],
                     {"vertices": {"a": 3, "b": 5}, "edges": [{"ends": 5, "label": 7}]},
                     "ends must be a list of vertex names", id="eplag-ends-number"),
        pytest.param(["eplag", "fingerprint", "--graph"],
                     {"vertices": {"a": 3, "b": 5}, "edges": [{"ends": [["a"], "b"], "label": 7}]},
                     "ends must be a list of vertex names", id="eplag-ends-nested-list"),
        pytest.param(["eplag", "fingerprint", "--graph"], {"vertices": {"a": 3}, "edges": 5},
                     "edges: expected a list", id="eplag-edges-number"),
        pytest.param(["group"], {"generators": -1}, "generators", id="group-negative-generators"),
        pytest.param(["pipeline", "--prime", "3", "--group"], {"generators": -1}, "generators",
                     id="pipeline-negative-generators"),
        pytest.param(["eplag", "tree", "--p", "5", "--tree"], [1], "JSON object", id="eplag-tree-list"),
        pytest.param(["eplag", "tree", "--p", "5", "--tree"], {"children": [1]},
                     "children[0]: expected a JSON object", id="eplag-tree-child-number"),
        pytest.param(["eplag", "tree", "--p", "5", "--tree"], {"children": [{"children": {}}]},
                     "children[0].children: expected a list", id="eplag-tree-children-object"),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, data, field):
    path = write(tmp_path, "in.json", data)
    if "{graph}" in argv:
        argv = [a.format(graph=readme_graph(tmp_path, capsys)) for a in argv]
    code, _, err = run(capsys, argv + [path])
    assert code == 2
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "argv, files, message",
    [
        pytest.param(["group", "{a}"], {"a": {"generators": 2, "relations": [[1, 2.5]]}},
                     "{a}.relations: matrix entries must be integers, got 2.5", id="group-float-entry"),
        pytest.param(["group", "{a}"], {"a": {"generators": 2, "relations": [[1]]}},
                     "{a}.relations: rows must have 2 entries", id="group-short-row"),
        pytest.param(["group", "{a}"], {"a": {"generators": 1.5}},
                     "{a}.generators: generators must be integers, got 1.5", id="group-float-generators"),
        pytest.param(["group", "{a}"], {"a": {"generators": -1, "relations": [[1]]}},
                     "{a}.generators: must be at least 0", id="group-negative-generators-with-rows"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"], {"a": {"vertices": {"a": 3.5}}},
                     "{a}.vertices: labels must be integers, got 3.5", id="eplag-float-vertex-label"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"],
                     {"a": {"vertices": {"a": 3, "b": 5},
                            "edges": [{"ends": ["a", "b"], "label": 7}, {"ends": 5, "label": 7}]}},
                     "{a}.edges[1]: ends must be a list of vertex names", id="eplag-ends"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"],
                     {"a": {"vertices": {"a": 3, "b": 5}, "edges": [{"ends": ["a", "b"], "label": 7.5}]}},
                     "{a}.edges[0]: labels must be integers, got 7.5", id="eplag-float-edge-label"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"],
                     {"a": {"vertices": {"a": 3, "b": 5}, "edges": [{"ends": ["a", "b"]}]}},
                     "{a}.edges[0]: missing field 'label'", id="eplag-no-edge-label"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"],
                     {"a": {"vertices": {"a": 3, "b": 5}, "edges": [{"label": 7}]}},
                     "{a}.edges[0]: missing field 'ends'", id="eplag-no-ends"),
        pytest.param(["ehs", "--system", "{a}"], {"a": dict(SIMPLICIAL_ONE, unit=[1.5])},
                     "{a}.unit: limit vector entries must be integers, got 1.5", id="ehs-float-unit"),
        pytest.param(["ehs", "--system", "{a}", "--endo", "{b}"],
                     {"a": SIMPLICIAL_ONE, "b": {"kind": "sideways", "matrix": [[1]]}},
                     "{b}: kind must be same_stage or cross_stage", id="ehs-endo-unknown-kind"),
    ],
)
def test_value_error_names_the_field(tmp_path, capsys, argv, files, message):
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    assert run(capsys, [a.format(**paths) for a in argv]) == (2, "", f"error: {message.format(**paths)}\n")


def test_ehs_ragged_endo_exits_2(tmp_path, capsys):
    system = write(tmp_path, "s.json", {"kind": "stationary", "matrices": [[[1]]], "unit": [1]})
    endo = write(tmp_path, "e.json", {"kind": "same_stage", "matrix": [[1, 0], [0]]})
    assert run(capsys, ["ehs", "--system", system, "--endo", endo]) == (2, "", f"error: {endo}.matrix: ragged rows\n")


@pytest.mark.parametrize("system, matrix, message", [
    pytest.param({"kind": "stationary", "matrices": [[[1]]], "unit": [1]}, [[3, 0], [0, 3]],
                 "matrix is 2x2, stage 0 has rank 1", id="shape"),
    pytest.param({"kind": "stationary", "matrices": [[[2, 1], [1, 1]]], "unit": [1, 1]}, [[1, 1], [0, 1]],
                 "matrix does not commute with the connecting maps", id="not-commuting"),
])
def test_ehs_endo_is_checked_before_the_realization(tmp_path, capsys, system, matrix, message):
    # both are input errors on the --endo file, found before any level is realized
    s = write(tmp_path, "s.json", system)
    e = write(tmp_path, "e.json", {"kind": "same_stage", "matrix": matrix})
    assert run(capsys, ["ehs", "--system", s, "--endo", e]) == (2, "", f"error: {e}: {message}\n")


def test_system_error_names_the_file_once(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"kind": "stationary", "matrices": [[[1]], [[2]]]})
    code, _, err = run(capsys, ["limits", path])
    assert code == 2
    assert err == f"error: {path}: stationary systems take exactly one matrix\n"


@pytest.mark.parametrize("argv", [["diagram", "validate"], ["group"], ["limits"]])
def test_missing_file_is_named_once(tmp_path, capsys, argv):
    path = str(tmp_path / "missing.json")
    code, _, err = run(capsys, argv + [path])
    assert code == 2
    assert err == f"error: {path}: file not found\n"


@pytest.mark.parametrize("argv", [["diagram", "validate"], ["group"], ["limits"]])
@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_file_is_named_once(tmp_path, capsys, argv, kind):
    path = tmp_path / "in.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"generators": "\u00e9"}'.encode("latin-1"))
    code, _, err = run(capsys, argv + [str(path)])
    assert code == 2
    reason = "Is a directory" if kind == "directory" else "not UTF-8 text"
    assert err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("argv, flag", [
    (["pipeline", "--group", "{z2}", "--prime", "3", "--depth", "2", "--dot"], "--dot"),
    (["pipeline", "--group", "{z2}", "--prime", "3", "--depth", "2", "--emit-diagram"], "--emit-diagram"),
    (["diagram", "dot", "{uhf}", "--out"], "--out"),
])
def test_output_in_missing_directory_exits_2(tmp_path, capsys, argv, flag):
    files = {"z2": write(tmp_path, "z2.json", Z2), "uhf": write(tmp_path, "uhf.json", UHF2)}
    out = str(tmp_path / "missing" / "out.txt")
    code, stdout, err = run(capsys, [a.format(**files) for a in argv] + [out])
    assert code == 2 and stdout == ""
    assert err == f"error: {flag}: {out}: No such file or directory\n"


def test_ehs_simplicial(tmp_path, capsys):
    system = {
        "kind": "stationary",
        "matrices": [[[1]]],
        "cone": "simplicial",
        "unit": [1],
    }
    path = write(tmp_path, "s.json", system)
    code, out, _ = run(capsys, ["--format", "json", "ehs", "--system", path, "--depth", "3"])
    assert code == 0
    report = json.loads(out)
    assert len(report["diagram"]["levels"]) == 4
    assert report["coverage"][0]["appears_literally"] is True


def test_ehs_with_endo(tmp_path, capsys):
    system = {
        "kind": "stationary",
        "matrices": [[[1]]],
        "cone": "simplicial",
        "unit": [1],
    }
    s = write(tmp_path, "s.json", system)
    e = write(tmp_path, "e.json", {"kind": "same_stage", "matrix": [[3]]})
    code, out, _ = run(capsys, ["--format", "json", "ehs", "--system", s, "--depth", "3",
                                "--endo", e])
    assert code == 0
    report = json.loads(out)
    assert "q" in report
    assert report["q"][0] == [[3]]


RANK_ZERO = {"kind": "stationary", "matrices": [[]], "cone": "simplicial", "unit": []}


@pytest.mark.parametrize("endo", [None, {"kind": "cross_stage", "matrix": []}])
def test_ehs_rank_zero_simplicial_ends(tmp_path, capsys, endo):
    # every stage is Z^0: the enumerator has no atom to give, and each level after the root is empty
    argv = ["--format", "json", "ehs", "--system", write(tmp_path, "s.json", RANK_ZERO), "--depth", "2"]
    if endo is not None:
        argv += ["--endo", write(tmp_path, "e.json", endo)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert [level["l"] for level in report["diagram"]["levels"]] == [1, 0, 0]
    assert not any(rec["from_enumerator"] for rec in report["coverage"])


def test_ehs_rank_zero_strict_first_exits_2(tmp_path, capsys):
    path = write(tmp_path, "s.json", dict(RANK_ZERO, cone="strict_first"))
    code, out, err = run(capsys, ["--format", "json", "ehs", "--system", path])
    assert code == 2 and out == ""
    assert err == f"error: {path}: strict_first cone needs every stage rank to be at least 1\n"


@pytest.mark.parametrize("matrix, unit", [([[-1]], [1]), ([[1, -1], [0, 2]], [1, 0])], ids=["minus-one", "triangular"])
def test_ehs_simplicial_negative_map_exits_2(tmp_path, capsys, matrix, unit):
    # a negative map does not keep the coordinatewise cone: refused as input,
    # not searched (exit 3) or realized into an unreachable vertex (exit 1)
    system = {"kind": "stationary", "matrices": [matrix], "cone": "simplicial", "unit": unit}
    path = write(tmp_path, "s.json", system)
    code, out, err = run(capsys, ["--format", "json", "ehs", "--system", path])
    assert code == 2 and out == ""
    assert err == f"error: {path}: simplicial cone needs every connecting map to be nonnegative\n"


STRICT_DOUBLING = {"kind": "stationary", "matrices": [[[2]]], "cone": "strict_first", "unit": [1]}


def test_ehs_ignores_injective_key(tmp_path, capsys):
    # injectivity is worked out from the matrices; the key is not read
    path = write(tmp_path, "s.json", dict(STRICT_DOUBLING, injective=False))
    code, out, _ = run(capsys, ["--format", "json", "ehs", "--system", path, "--depth", "2"])
    assert code == 0
    assert len(json.loads(out)["diagram"]["levels"]) == 3


def test_ehs_endomorphism_leaving_the_cone_exits_1(tmp_path, capsys):
    s = write(tmp_path, "s.json", STRICT_DOUBLING)
    e = write(tmp_path, "e.json", {"kind": "cross_stage", "matrix": [[-1]]})
    code, out, _ = run(capsys, ["--format", "json", "ehs", "--system", s, "--endo", e])
    assert code == 1
    assert "endomorphism-not-positive" in json.loads(out)["error"]


def test_ehs_positivity_undecided_within_the_bound_exits_3(tmp_path, capsys):
    # the Fibonacci system: (-233, 378) changes sign on every push until stage 8
    system = {"kind": "stationary", "matrices": [[[1, 1], [1, 0]]], "cone": "simplicial", "unit": [-233, 378]}
    path = write(tmp_path, "s.json", system)
    code, out, _ = run(capsys, ["--format", "json", "ehs", "--system", path, "--bound", "2"])
    assert code == 3
    assert json.loads(out) == {"error": "shen-depth-exceeded: positivity undecided within bound"}


def test_ehs_unit_outside_the_cone_exits_2(tmp_path, capsys):
    path = write(tmp_path, "s.json", dict(STRICT_DOUBLING, unit=[-1]))
    code, _, err = run(capsys, ["ehs", "--system", path])
    assert code == 2
    assert err.startswith(f"error: {path}:") and "positive cone" in err


def test_eplag_tree_and_fingerprint(tmp_path, capsys):
    tree = write(tmp_path, "t.json", {"children": [{"children": []}]})
    code, out, _ = run(capsys, ["eplag", "tree", "--tree", tree, "--p", ""])
    assert code == 0
    graph = json.loads(out)
    gpath = write(tmp_path, "g.json", graph)
    code2, out2, _ = run(capsys, ["--format", "json", "eplag", "fingerprint",
                                  "--graph", gpath, "--prime-bound", "12", "--bound", "3"])
    assert code2 == 0
    report = json.loads(out2)
    assert report["p_divisible_sample"] is True
    assert len(report["fingerprint"]) == 2


def test_eplag_fingerprint_text_format_keeps_inner_lists_apart(tmp_path, capsys):
    # README's graph: the tree with one child, P = {5}
    graph = {"P": [5], "edges": [{"ends": ["r", "r.0"], "label": 2}], "vertices": {"r": 3, "r.0": 11}}
    gpath = write(tmp_path, "g.json", graph)
    code, out, _ = run(capsys, ["eplag", "fingerprint", "--graph", gpath])
    assert code == 0
    assert out.splitlines() == ["fingerprint:", "  - [3, 5]", "  - [5, 11]", "p_divisible_sample: True"]
    code, out, _ = run(capsys, ["--format", "json", "eplag", "fingerprint", "--graph", gpath])
    assert json.loads(out)["fingerprint"] == [[3, 5], [5, 11]]


def test_eplag_member(tmp_path, capsys):
    graph = {
        "vertices": {"v": 3},
        "edges": [],
        "P": [5],
    }
    g = write(tmp_path, "g.json", graph)
    t = write(tmp_path, "x.json", {"v": "1/15"})
    code, out, _ = run(capsys, ["--format", "json", "eplag", "member",
                                "--graph", g, "--target", t])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "member"


def test_pipeline_cli(tmp_path, capsys):
    g = write(tmp_path, "z2.json", Z2)
    diagram_out = str(tmp_path / "d.json")
    dot_out = str(tmp_path / "d.dot")
    code, out, _ = run(capsys, ["--format", "json", "pipeline", "--group", g,
                                "--prime", "3", "--depth", "3",
                                "--emit-diagram", diagram_out, "--dot", dot_out])
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["stages"]["pv"]["cokernel_invariant_factors"] == [2]
    assert report["absorption"]["d_3"] is True
    emitted = json.loads(open(diagram_out).read())
    assert emitted["levels"]
    assert open(dot_out).read().startswith("digraph")


def test_pipeline_width_is_hidden_and_unused(tmp_path, capsys):
    # the staged pair has no width; --width only still parses
    g = write(tmp_path, "z3.json", Z3)
    argv = ["--format", "json", "pipeline", "--group", g, "--prime", "2", "--depth", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and "width" not in json.loads(out)
    assert run(capsys, [*argv, "--width", "1"]) == (code, out, "")
    with pytest.raises(SystemExit):
        main(["pipeline", "--help"])
    assert "--width" not in capsys.readouterr().out


def test_pipeline_deterministic(tmp_path, capsys):
    g = write(tmp_path, "z3.json", Z3)
    argv = ["--format", "json", "pipeline", "--group", g, "--prime", "2", "--depth", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_pipeline_pushes_and_builds_limit_elements_within_bounds(tmp_path, capsys, monkeypatch):
    # a count guard, not a timer: one g = 2, depth-3 job made 26 connect
    # calls and built 57 limit elements when each push and comparison went
    # through a fresh element; comparing at one stage takes 20 and 19
    from afkit.limits import LimitElement, StagedSystem

    counts = {"connect": 0, "elements": 0}
    connect, post_init = StagedSystem.connect, LimitElement.__post_init__

    def counted_connect(self, n):
        counts["connect"] += 1
        return connect(self, n)

    def counted_post_init(self):
        counts["elements"] += 1
        post_init(self)

    monkeypatch.setattr(StagedSystem, "connect", counted_connect)
    monkeypatch.setattr(LimitElement, "__post_init__", counted_post_init)
    g = write(tmp_path, "g.json", {"generators": 2, "relations": [[4, 1], [0, 6]]})
    code, out, _ = run(capsys, ["--format", "json", "pipeline", "--group", g, "--prime", "3", "--depth", "3"])
    assert code == 0 and json.loads(out)["all_passed"] is True
    assert 0 < counts["connect"] <= 20
    assert 0 < counts["elements"] <= 19


@pytest.mark.parametrize("rows,description", [([[0]], "(Z, 0, Z)"), ([[6, 0], [0, 0]], "(Z/6 + Z, 0, Z)")])
def test_pipeline_with_a_free_part_reports_its_kernel(tmp_path, capsys, rows, description):
    g = write(tmp_path, "g.json", {"generators": len(rows), "relations": rows})
    code, out, _ = run(capsys, ["--format", "json", "pipeline", "--group", g, "--prime", "3", "--depth", "3"])
    assert code == 1
    report = json.loads(out)
    assert report["stages"]["pv"]["kernel_rank"] == 1
    assert report["invariant"]["k1"] == [0]
    assert report["invariant"]["description"] == description
    assert report["crossed_product_invariant"] is None
    assert report["all_passed"] is False


def test_pipeline_json_reads_the_pv_stage(tmp_path, capsys, monkeypatch):
    # the reported invariant, absorption flags and crossed product are the PV
    # stage's, even where they disagree with the input group
    g = write(tmp_path, "z6.json", Z6)
    real = invariants.pv_check
    found = KirchbergInvariant(FgAbelianGroup.cyclic(5), (1,))
    monkeypatch.setattr(invariants, "pv_check", lambda *a: replace(real(*a), invariant=found))
    code, out, _ = run(capsys, ["--format", "json", "pipeline", "--group", g, "--prime", "5", "--depth", "3"])
    report = json.loads(out)
    assert code == 0
    assert report["stages"]["pv"]["cokernel_invariant_factors"] == [5]
    assert report["invariant"]["description"] == "(Z/5, [1], 0)"
    assert report["absorption"] == {"o_infty_standard": False, "d_5": False}
    assert report["crossed_product_invariant"]["description"] == "(0, [1], 0)"


def test_invariant_with_compare(tmp_path, capsys):
    a = write(tmp_path, "a.json", Z3)
    b = write(tmp_path, "b.json", {"generators": 2, "relations": [[3, 0], [0, 1]]})
    code, out, _ = run(capsys, ["--format", "json", "invariant", a, "--prime", "2",
                                "--compare", b])
    assert code == 0
    report = json.loads(out)
    assert report["o_infty_standard_absorbing"] is True
    assert report["d_2_absorbing"] is True
    assert report["comparison"]["kp_isomorphic"] is True
    assert report["comparison"]["equivalences"]["automorphisms_conjugate"] is True


def readme_graph(tmp_path, capsys):
    """The labelled graph of README's eplag example: a two-vertex tree, P = [5]."""
    tree = write(tmp_path, "t.json", {"children": [{"children": []}]})
    code, out, _ = run(capsys, ["eplag", "tree", "--tree", tree, "--p", "5"])
    assert code == 0
    return write(tmp_path, "graph.json", json.loads(out))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["pipeline", "--group", "{z2}", "--prime", "3", "--depth", "1"], "--depth"),
        (["pipeline", "--group", "{z2}", "--prime", "4"], "--prime"),
        (["invariant", "{z2}", "--prime", "4"], "--prime"),
        # past the range where primality is decided exactly
        (["pipeline", "--group", "{z2}", "--prime", "3317044064679887385961981"], "--prime"),
        (["invariant", "{z2}", "--prime", "3317044064679887385961981"], "--prime"),
        (["eplag", "tree", "--tree", "{tree}", "--p", "5,3317044064679887385961981"], "--p"),
        (["group", "{z2}", "--divisors", "1"], "--divisors"),
        (["group", "{z2}", "--divisors", "x"], "--divisors"),
        (["schreier", "--target", "{z2}", "--images", "[[1,2]]"], "--images"),
        (["schreier", "--target", "{z2}", "--images", "[[1]]"], "--gen-bound"),
        (["schreier", "--target", "{z2}", "--images", "[[1],[1]]", "--word-bound", "-1"], "--word-bound"),
        (["schreier", "--target", "{z2}", "--images", "[[1],[1]]", "--gen-bound", "-1"], "--gen-bound"),
        (["ehs", "--system", "{sys}", "--depth", "-1"], "--depth"),
        (["ehs", "--system", "{sys}", "--bound", "-3"], "--bound"),
        (["eplag", "tree", "--tree", "{tree}", "--p", "4"], "--p"),
        (["eplag", "fingerprint", "--graph", "{graph}", "--bound", "0"], "--bound"),
        (["eplag", "fingerprint", "--graph", "{graph}", "--prime-bound", "1"], "--prime-bound"),
        (["diagram", "telescope", "{uhf}", "--cuts", "0,5"], "--cuts"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_bad_flag_value_exits_2(tmp_path, capsys, argv, flag):
    paths = {
        "z2": write(tmp_path, "z2.json", Z2),
        "graph": readme_graph(tmp_path, capsys),
        "tree": str(tmp_path / "t.json"),
        "target": write(tmp_path, "x.json", {"r": "1/5"}),
        "sys": write(tmp_path, "s.json", STRICT_DOUBLING),
        "uhf": write(tmp_path, "uhf.json", UHF2),
    }
    code, _, err = run(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert err.startswith(f"error: {flag}:")


def test_pipeline_decides_a_large_prime_at_once(tmp_path, capsys):
    # 10^18 + 3 is prime; trial division up to its square root would take minutes
    path = write(tmp_path, "z6.json", Z6)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["--format", "json", "pipeline", "--group", path, "--prime", "1000000000000000003"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["absorption"] == {"d_1000000000000000003": True, "o_infty_standard": True}


def test_eplag_fingerprint_past_the_digit_limit_answers(tmp_path, capsys):
    # a certificate at K = 10000 would name the P-part generator 1/5^10000,
    # which has more decimal digits than Python writes; the fingerprint asks
    # yes/no questions only, so it answers, and as it does at K = 3
    graph = readme_graph(tmp_path, capsys)
    argv = ["--format", "json", "eplag", "fingerprint", "--graph", graph, "--bound"]
    small = run(capsys, argv + ["3"])
    assert small[0] == 0 and json.loads(small[1]) == {"fingerprint": [[3, 5], [5, 11]], "p_divisible_sample": True}
    assert run(capsys, argv + ["10000"]) == small


def test_eplag_fingerprint_job_sends_no_query_at_any_bound(tmp_path, capsys, monkeypatch):
    # the fingerprint and the P-divisibility sample both read each prime's
    # record, so no query goes through the front end and nothing builds r^K
    # or p^K: at K = 10^6 the job prints what it prints at K = 2, and fast
    # (a p^K and a Fraction per sample query take about 138 s there)
    from afkit import eplag
    tree = write(tmp_path, "t.json", eplag.chain_tree(8))
    code, out, _ = run(capsys, ["eplag", "tree", "--tree", tree, "--p", "3"])
    assert code == 0
    graph = write(tmp_path, "graph.json", json.loads(out))

    def refuse(*args):
        raise AssertionError("the fingerprint job sent a query through the front end")

    monkeypatch.setattr(eplag, "_local_parts", refuse)
    argv = ["--format", "json", "eplag", "fingerprint", "--graph", graph, "--bound"]
    small = run(capsys, argv + ["2"])
    assert small[0] == 0 and json.loads(small[1]) == {
        "fingerprint": [[3]] * 6 + [[3, 5], [3, 11], [3, 17]], "p_divisible_sample": True}
    start = time.perf_counter()
    assert run(capsys, argv + ["1000000"]) == small
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("value", ["1/5", 0.2])
def test_eplag_member_reads_json_numbers_as_decimals(tmp_path, capsys, value):
    graph = readme_graph(tmp_path, capsys)
    target = write(tmp_path, "x.json", {"r": value})
    code, out, _ = run(capsys, ["--format", "json", "eplag", "member",
                                "--graph", graph, "--target", target])
    assert code == 0
    assert json.loads(out)["status"] == "member"


def test_eplag_member_rejects_boolean_target(tmp_path, capsys):
    graph = readme_graph(tmp_path, capsys)
    target = write(tmp_path, "x.json", {"r": True})
    code, _, err = run(capsys, ["eplag", "member", "--graph", graph, "--target", target])
    assert code == 2
    assert err.startswith(f"error: {target}:")


def test_eplag_member_refuses_a_repeated_edge(tmp_path, capsys):
    edge = {"ends": ["u", "v"], "label": 7}
    graph = write(tmp_path, "g.json", {"vertices": {"u": 3, "v": 5}, "edges": [edge, edge], "P": []})
    target = write(tmp_path, "x.json", {"u": "1/7", "v": "1/7"})
    code, out, err = run(capsys, ["eplag", "member", "--graph", graph, "--target", target])
    assert (code, out, err) == (2, "", f"error: {graph}: edge ['u', 'v'] is listed twice\n")


def test_eplag_member_refuses_edges_that_spell_alike(tmp_path, capsys):
    # "(x+y+z)/(1*7)" would name two generators; it once printed an empty
    # certificate for (e_x+y + e_z)/7 with exit 0
    vertices = dict.fromkeys(("x+y", "z", "x", "y+z"), 3)
    edges = [{"ends": ["z", "x+y"], "label": 7}, {"ends": ["x", "y+z"], "label": 7}]
    graph = write(tmp_path, "g.json", {"vertices": vertices, "edges": edges})
    target = write(tmp_path, "x.json", {"x+y": "1/7", "z": "1/7"})
    code, out, err = run(capsys, ["eplag", "member", "--graph", graph, "--target", target])
    assert (code, out) == (2, "")
    assert err == f"error: {graph}: edges ['x+y', 'z'] and ['x', 'y+z'] both spell (x+y+z)/(d*7)\n"
    # with another label on one edge no two names collide
    edges[1]["label"] = 11
    graph = write(tmp_path, "g.json", {"vertices": vertices, "edges": edges})
    code, out, _ = run(capsys, ["--format", "json", "eplag", "member", "--graph", graph, "--target", target])
    assert code == 0 and json.loads(out) == {"bound": 1, "certificate": {"(x+y+z)/(1*7)": 1}, "status": "member"}


def test_eplag_graph_refuses_a_repeated_divisibility_prime(tmp_path, capsys):
    graph = write(tmp_path, "g.json", {"vertices": {"v": 3}, "P": [5, 5]})
    code, out, err = run(capsys, ["eplag", "fingerprint", "--graph", graph])
    assert (code, out, err) == (2, "", f"error: {graph}: divisibility set entry 5 is listed twice\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tree", "--tree", "{tree}", "--p", "5,3,5"], "--p: divisibility set entry 5 is listed twice"),
        # only fingerprint declares --bound and --prime-bound, so argparse refuses them elsewhere
        (["tree", "--tree", "{tree}", "--bound", "3"], "unrecognized arguments: --bound 3"),
        (["tree", "--tree", "{tree}", "--prime-bound", "20"], "unrecognized arguments: --prime-bound 20"),
        (["member", "--graph", "{graph}", "--target", "{target}", "--prime-bound", "5"],
         "unrecognized arguments: --prime-bound 5"),
        (["member", "--graph", "{graph}", "--target", "{target}", "--bound", "0"],
         "unrecognized arguments: --bound 0"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_eplag_refuses_what_it_would_ignore(tmp_path, capsys, argv, message):
    paths = {"graph": readme_graph(tmp_path, capsys), "tree": str(tmp_path / "t.json"),
             "target": write(tmp_path, "x.json", {"r": "1/5"})}
    argv = ["eplag", *[a.format(**paths) for a in argv]]
    if not message.startswith("unrecognized"):
        assert run(capsys, argv) == (2, "", f"error: {message}\n")
        return
    with pytest.raises(SystemExit) as exit_:  # argparse's usage error, under the top parser's usage
        main(argv)
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert err.startswith("usage: afkit [-h] [--format {json,text}]") and err.endswith(f"afkit: error: {message}\n")


def test_eplag_member_names_the_vertex_of_a_zero_denominator(tmp_path, capsys):
    graph = readme_graph(tmp_path, capsys)
    target = write(tmp_path, "x.json", {"r": "1/0"})
    code, out, err = run(capsys, ["eplag", "member", "--graph", graph, "--target", target])
    assert (code, out, err) == (2, "", f"error: {target}: r: zero denominator\n")


@pytest.mark.parametrize("value", ["x", None, [1]])
def test_eplag_member_names_the_vertex_of_a_non_number(tmp_path, capsys, value):
    graph = readme_graph(tmp_path, capsys)
    target = write(tmp_path, "x.json", {"r": value})
    code, out, err = run(capsys, ["eplag", "member", "--graph", graph, "--target", target])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {target}: r: ") and err.count("\n") == 1


@pytest.mark.parametrize("images", ["[1,2]", '{"a": 1}', "5", "[[1],2]"])
def test_schreier_images_must_be_a_list_of_lists(tmp_path, capsys, images):
    target = write(tmp_path, "z2.json", Z2)
    code, out, err = run(capsys, ["schreier", "--target", target, "--images", images])
    assert (code, out, err) == (2, "", "error: --images: expected a JSON list of image vectors\n")


@pytest.mark.parametrize("module, name, code", cli.REPORTED_ERRORS)
def test_reported_errors_resolve_to_caught_classes(module, name, code):
    # main looks each class up only once an error arrives, so a stale row
    # would otherwise surface as an AttributeError inside its handler
    cls = getattr(importlib.import_module(f"afkit.{module}"), name)
    assert issubclass(cls, (RuntimeError, ValueError))  # the bases main catches
    assert code in (cli.EXIT_VERIFY_FAIL, cli.EXIT_DEPTH)


@pytest.mark.parametrize(
    "argv, files",
    [
        pytest.param(["group", "{a}"], {"a": {"generators": 1, "relations": [[2.5]]}},
                     id="group-float-relation"),
        pytest.param(["group", "{a}"], {"a": {"generators": 2, "relations": [[True, 0]]}},
                     id="group-bool-relation"),
        pytest.param(["group", "{a}"], {"a": {"generators": 1.5}}, id="group-float-generators"),
        pytest.param(["schreier", "--target", "{a}", "--images", "[[1.5],[true]]"], {"a": Z2},
                     id="schreier-images"),
        pytest.param(["limits", "{a}"], {"a": {"kind": "stationary", "matrices": [[[2.7]]]}},
                     id="limits-matrix"),
        pytest.param(["limits", "{a}"],
                     {"a": {"kind": "prefix+tail", "matrices": [[[2]]], "period": 1.5}},
                     id="limits-period"),
        pytest.param(["ehs", "--system", "{a}"], {"a": dict(SIMPLICIAL_ONE, unit=[1.5])},
                     id="ehs-unit"),
        pytest.param(["ehs", "--system", "{a}", "--endo", "{b}"],
                     {"a": SIMPLICIAL_ONE, "b": {"kind": "same_stage", "matrix": [[1.9]]}},
                     id="ehs-endo"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"], {"a": {"vertices": {"r": 5.9}}},
                     id="eplag-float-label"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"], {"a": {"vertices": {"r": "x"}}},
                     id="eplag-string-label"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"],
                     {"a": {"vertices": {"r": 3}, "P": [2.5]}}, id="eplag-P"),
        pytest.param(["eplag", "fingerprint", "--graph", "{a}"],
                     {"a": {"vertices": {"r": 3, "s": 3},
                            "edges": [{"ends": ["r", "s"], "label": 7.5}]}},
                     id="eplag-edge-label"),
        pytest.param(["diagram", "validate", "{a}"], {"a": {"levels": [{"l": 1.5, "w": [1]}]}},
                     id="diagram-size"),
        pytest.param(["diagram", "validate", "{a}"], {"a": {"levels": [{"l": 1, "w": [1.5]}]}},
                     id="diagram-weight"),
    ],
)
def test_non_integer_json_number_exits_2(tmp_path, capsys, argv, files):
    # a float, a bool or a string where an integer belongs is rejected, not truncated
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    code, _, err = run(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and "integers" in err


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    g = write(tmp_path, "g.json", Z6)
    code, out, _ = run(capsys, ["--format", "json", "group", g])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "afkit", "--format", "json", "group", g], capture_output=True,
                          text=True, env=os.environ | {"PYTHONPATH": str(src)}, timeout=60)
    assert (done.returncode, done.stdout) == (code, out)


def test_unknown_edge_end_error_does_not_depend_on_the_hash_seed(tmp_path):
    # a set's iteration order follows the string hash seed; the error sorts the ends
    graph = write(tmp_path, "g.json", {"vertices": {"u": 3}, "edges": [{"ends": ["u", "w"], "label": 7}]})
    target = write(tmp_path, "x.json", {"u": "1/3"})
    src = Path(__file__).resolve().parents[1] / "src"
    errs = {
        subprocess.run([sys.executable, "-m", "afkit", "eplag", "member", "--graph", graph, "--target", target],
                       capture_output=True, text=True, timeout=60,
                       env=os.environ | {"PYTHONPATH": str(src), "PYTHONHASHSEED": seed}).stderr
        for seed in ("1", "5")
    }
    assert errs == {f"error: {graph}: edge ['u', 'w'] is not a pair of known vertices\n"}


def test_member_certificate_names_do_not_depend_on_the_hash_seed(tmp_path):
    # the CLI spells an edge's name from its frozenset, sorting the ends
    graph = write(tmp_path, "g.json", {"vertices": {"u": 3, "w": 5}, "edges": [{"ends": ["w", "u"], "label": 7}]})
    target = write(tmp_path, "x.json", {"u": "1/7", "w": "8/7"})
    src = Path(__file__).resolve().parents[1] / "src"
    outs = {
        subprocess.run([sys.executable, "-m", "afkit", "--format", "json", "eplag", "member", "--graph", graph,
                        "--target", target], capture_output=True, text=True, timeout=60,
                       env=os.environ | {"PYTHONPATH": str(src), "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "5")
    }
    assert outs == {'{"bound": 1, "certificate": {"(u+w)/(1*7)": 1, "w/(1*5^0)": 1}, "status": "member"}\n'}


# ---------------------------------------------------------------------------
# argument reading: main's lean reader, and the argparse paths it leaves alone
# ---------------------------------------------------------------------------


def test_benchmark_argv_shapes_never_reach_argparse(tmp_path, capsys, monkeypatch):
    # a count guard, not a timer: argparse's generic matching cost more than a
    # small schreier job's work, so the three argv shapes bench/workloads.py
    # sends main are read without it
    z5 = write(tmp_path, "z5.json", {"generators": 1, "relations": [[5]]})
    graph = readme_graph(tmp_path, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in (
        ["--format", "json", "schreier", "--target", z5, "--images", "[[1],[2]]", "--word-bound", "4",
         "--gen-bound", "2"],
        ["--format", "json", "eplag", "fingerprint", "--graph", graph, "--bound", "2"],
        ["--format", "json", "pipeline", "--group", z5, "--prime", "3", "--width", "8"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "") and json.loads(out)


def test_reader_internals_hold_on_this_python():
    # the argparse internals _grammar's docstring names, as _grammar and _read_args read them
    parser = argparse.ArgumentParser()
    option = parser.add_argument("--x")
    parser.set_defaults(func=len)
    actions = parser.add_subparsers(dest="command", required=True)
    child = actions.add_parser("c")
    help_ = parser._actions[0]
    assert parser._actions == [help_, option, actions] and parser._defaults == {"func": len}
    assert type(option) is argparse._StoreAction and option.nargs is None
    assert help_.default == argparse.SUPPRESS == argparse.ArgumentParser().add_subparsers().dest
    assert isinstance(actions, argparse._SubParsersAction) and actions.nargs == argparse.PARSER
    assert actions.choices == {"c": child} and actions.required


def test_each_action_refuses_the_flags_only_its_siblings_declare(tmp_path, capsys, monkeypatch):
    # argparse refuses the flag before the command runs, so an output flag writes nothing
    monkeypatch.chdir(tmp_path)
    files = {"graph": readme_graph(tmp_path, capsys), "tree": str(tmp_path / "t.json"),
             "target": write(tmp_path, "x.json", {"r": "1/5"}), "diagram": write(tmp_path, "d.json", UHF2)}
    walked = set()
    for command, parser in subparsers(cli.build_parser()).items():
        actions = subparsers(parser)
        flags = {name: {f for a in p._actions for f in a.option_strings} for name, p in actions.items()}
        for action, p in actions.items():
            argv = [command, action]
            for a in p._actions:
                if a.required:  # a positional or a required flag
                    argv += [*a.option_strings[:1], files[a.dest]]
            assert run(capsys, argv)[0] == 0
            for flag in sorted(set().union(*flags.values()) - flags[action]):
                with pytest.raises(SystemExit) as exit_:
                    main([*argv, flag, "nothere.json"])
                out, err = capsys.readouterr()
                assert (exit_.value.code, out) == (2, "")
                assert err.endswith(f"afkit: error: unrecognized arguments: {flag} nothere.json\n")
                assert not (tmp_path / "nothere.json").exists()
                walked.add((command, action, flag))
    # among them the two found by hand, which exited 0 while one parser held every action's flags
    assert {("eplag", "member", "--tree"), ("diagram", "validate", "--out")} <= walked


def test_equals_form_and_abbreviation_read_as_the_full_flag(tmp_path, capsys):
    z2 = write(tmp_path, "z2.json", Z2)
    argv = ["--format", "json", "schreier", "--target", z2, "--images", "[[1],[1]]"]
    full = run(capsys, [*argv, "--word-bound", "5"])
    assert full[0] == 0 and json.loads(full[1])["count"] == 3
    for rest in (["--word-bound=5"], ["--word", "5"]):  # argparse's, not the reader's
        assert cli._read_args([*argv, *rest]) is None
        assert run(capsys, [*argv, *rest]) == full


def test_subcommand_help_exits_0_with_its_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    with pytest.raises(SystemExit) as exit_:
        main(["schreier", "-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(
        "usage: afkit schreier [-h] --target TARGET --images IMAGES\n"
        "                      [--word-bound WORD_BOUND] [--gen-bound GEN_BOUND]\n\n"
    )


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        (["schreier", "--target", "z2.json", "--images", "[[1],[1]]", "--nope", "1"],
         "usage: afkit [-h] [--format {json,text}]\n", "afkit: error: unrecognized arguments: --nope 1\n"),
        (["pipeline", "--group", "z2.json", "--prime", "3", "--depth", "x"],
         "usage: afkit pipeline [-h] --group GROUP --prime PRIME [--depth DEPTH]\n",
         "afkit pipeline: error: argument --depth: invalid int value: 'x'\n"),
    ],
    ids=["unknown-flag", "bad-int"],
)
def test_usage_errors_exit_2_with_argparse_usage(capsys, monkeypatch, argv, usage, message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert err.startswith(usage) and err.endswith(message)


def declared() -> tuple:
    """Every option string, subcommand name and choice the parser declares,
    and the (command path, parser) of each subcommand or action that has no
    actions of its own, such as (("eplag", "fingerprint"), <its parser>)."""
    tokens, commands, parsers = set(), [], [((), cli._parser())]
    while parsers:
        path, parser = parsers.pop()
        for action in parser._actions:
            tokens.update(action.option_strings, action.choices or ())
        nested = [((*path, name), p) for name, p in subparsers(parser).items()]
        parsers += nested
        if not nested:
            commands.append((path, parser))
    return tokens, sorted(commands, key=lambda command: command[0])


DECLARED, COMMANDS = declared()
LONG = [f for f in DECLARED if f.startswith("--")]
VALUES = sorted({"0", "3", "12", "", "x", "g.json", "[[1],[1]]"} | {t for t in DECLARED if t[:1] != "-"})
# the declared tokens; values, negative ones included; and the pieces argparse
# alone reads: "-", "--", "-h", =-forms and abbreviations
TOKENS = sorted(DECLARED | set(VALUES) | {"-1", "-7", "-", "--", "-h"}
                | {f"{f}={v}" for f in LONG for v in ("3", "x")} | {f[:-2] for f in LONG if len(f) > 5})


@st.composite
def argvs(draw):
    """Any TOKENS; or a full command path, such as ``eplag fingerprint``,
    with a value for most positionals and required flags and some other
    flags of its parser, in any order, a few TOKENS put in."""
    tokens = st.sampled_from(TOKENS)
    if draw(st.booleans()):
        return draw(st.lists(tokens, max_size=10))
    path, parser = draw(st.sampled_from(COMMANDS))
    value = st.one_of(*[st.sampled_from(VALUES)] * 4, tokens)
    number = st.sampled_from(["0", "3", "12", "x", "-1"])
    required = st.sampled_from([True, True, True, False])  # now and then left out
    parts = []
    for a in parser._actions:
        if a.nargs == 0 or not draw(required if a.required else st.booleans()):  # -h: TOKENS has it
            continue
        if not a.option_strings:
            parts.append([draw(value)])
        else:
            parts.append([draw(st.sampled_from(a.option_strings)), draw(number if a.type else value)])
    argv = [*draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"], ["--format", "xml"]])), *path]
    argv += [t for part in draw(st.permutations(parts)) for t in part]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(tokens))
    return argv


def parsed(argv):
    """``parse_args(argv)``, or None where it prints help or a usage error and exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli._parser().parse_args(argv)
    except SystemExit:
        return None


@settings(max_examples=1500, deadline=None)
@given(argvs())
def test_reader_gives_argparse_namespace_or_defers(argv):
    read = cli._read_args(argv)
    assert read is None or read == parsed(argv)
