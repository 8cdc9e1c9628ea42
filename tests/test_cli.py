"""CLI tests: exit codes, JSON round trips, deterministic output."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from afkit import invariants
from afkit.abelian import FgAbelianGroup
from afkit.cli import main
from afkit.invariants import KirchbergInvariant


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


@pytest.mark.parametrize("action", ["validate", "k0", "dot", "telescope"])
def test_diagram_actions_report_an_invalid_diagram(tmp_path, capsys, action):
    # only validate exists to describe an invalid diagram; the rest refuse it with the same report
    path = write(tmp_path, "d.json", INVALID_DIAGRAM)
    dot = tmp_path / "d.dot"
    code, out, _ = run(capsys, ["--format", "json", "diagram", action, path, "--cuts", "0,2", "--out", str(dot)])
    assert code == 1
    assert json.loads(out) == {"valid": False, "violations": INVALID_DIAGRAM_VIOLATIONS}
    assert not dot.exists()


RAGGED_SYSTEM = {"kind": "stationary", "matrices": [[[1, 0], [0]]], "cone": "simplicial", "unit": [1, 1]}
MALFORMED_DIAGRAMS = {
    "no-levels": ({"tail": []}, "levels"),
    "no-size": ({"levels": [{"w": [1]}]}, "'l'"),
    "ragged": ({"levels": [{"l": 1, "w": [1], "m": [[1, 1], [1]]}, {"l": 2, "w": [1, 1]}]}, "ragged"),
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
        pytest.param(["ehs", "--system"], RAGGED_SYSTEM, "ragged", id="ehs-ragged"),
        pytest.param(["ehs", "--system"],
                     {"kind": "stationary", "matrices": [[[1, 0], [0, 1]]], "unit": [1]},
                     "order unit needs 2 entries", id="ehs-unit-length"),
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


def test_ehs_ragged_endo_exits_2(tmp_path, capsys):
    system = write(tmp_path, "s.json", {"kind": "stationary", "matrices": [[[1]]], "unit": [1]})
    endo = write(tmp_path, "e.json", {"kind": "same_stage", "matrix": [[1, 0], [0]]})
    code, _, err = run(capsys, ["ehs", "--system", system, "--endo", endo])
    assert code == 2
    assert err.startswith("error: ") and "ragged" in err


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
    system = {"kind": "stationary", "matrices": [[[2, -1], [-1, 2]]], "cone": "simplicial", "unit": [1, -1]}
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
        (["eplag", "member", "--graph", "{graph}", "--target", "{target}", "--bound", "0"], "--bound"),
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
    }
    code, _, err = run(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert err.startswith(f"error: {flag}:")


def test_eplag_fingerprint_past_the_digit_limit_answers(tmp_path, capsys):
    # a certificate at K = 10000 would name the P-part generator 1/5^10000,
    # which has more decimal digits than Python writes; the fingerprint asks
    # yes/no questions only, so it answers, and as it does at K = 3
    graph = readme_graph(tmp_path, capsys)
    argv = ["--format", "json", "eplag", "fingerprint", "--graph", graph, "--bound"]
    small = run(capsys, argv + ["3"])
    assert small[0] == 0 and json.loads(small[1]) == {"fingerprint": [[3, 5], [5, 11]], "p_divisible_sample": True}
    assert run(capsys, argv + ["10000"]) == small


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


SIMPLICIAL_ONE = {"kind": "stationary", "matrices": [[[1]]], "unit": [1]}


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
