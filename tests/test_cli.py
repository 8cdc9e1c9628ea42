"""CLI tests: exit codes, JSON round trips, deterministic output."""

import json

import pytest

from afkit.cli import main


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


def test_rordam_pass_and_fail(tmp_path, capsys):
    g = write(tmp_path, "g.json", Z2)
    code, out, _ = run(capsys, ["--format", "json", "rordam", "--group", g, "--width", "6"])
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
    # emitted JSON re-parses and revalidates
    path2 = write(tmp_path, "d2.json", emitted)
    code2, out2, _ = run(capsys, ["--format", "json", "diagram", "validate", path2])
    assert code2 == 0 and json.loads(out2)["valid"]


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


def test_eplag_member(tmp_path, capsys):
    graph = {
        "vertices": {"v": 3},
        "edges": [],
        "P": [5],
    }
    g = write(tmp_path, "g.json", graph)
    t = write(tmp_path, "x.json", {"v": "1/15"})
    code, out, _ = run(capsys, ["--format", "json", "eplag", "member",
                                "--graph", g, "--target", t, "--bound", "2"])
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


def test_pipeline_deterministic(tmp_path, capsys):
    g = write(tmp_path, "z3.json", Z3)
    argv = ["--format", "json", "pipeline", "--group", g, "--prime", "2", "--depth", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


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
