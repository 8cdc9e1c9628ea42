"""Command-line front end: JSON in, reports and DOT out.

Exit codes: 0 all checks passed, 1 a verification failed, 2 malformed
input, 3 a bounded search was exceeded or the limit is proved not finitely
generated.  Output is deterministic: JSON with sorted keys, DOT
stable-sorted by level and vertex index.  Each command imports the library
modules it uses when it runs, so a call loads only those: every process is
one call, and loading all of them takes longer than most calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from .abelian import (
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    is_n_divisible,
    is_prime,
    require_ints,
)

if TYPE_CHECKING:
    from .dimension import OrderedStagedSystem
    from .eplag import EplagGroup
    from .invariants import KirchbergInvariant
    from .limits import StagedSystem

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_DEPTH = 3


class InputError(ValueError):
    """Malformed input file or flag; maps to exit code 2."""


# Library errors reported as {"error": ...} on stdout, with their exit codes;
# looked up by (module, class name) when an error arrives, not loaded up front.
REPORTED_ERRORS = (
    ("dimension", "ShenDepthExceeded", EXIT_DEPTH),
    ("limits", "NotFinitelyGeneratedError", EXIT_DEPTH),
    ("dimension", "RealizationError", EXIT_VERIFY_FAIL),
    ("dimension", "EndomorphismNotPositive", EXIT_VERIFY_FAIL),
)


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


def _write(flag: str, path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise InputError(f"{flag}: {path}: {e.strerror}")


def _int_list(flag: str, text: str, what: str = "integers", ok=lambda n: True) -> list:
    """Comma-separated integers, each passing ``ok``; InputError otherwise."""
    try:
        values = [int(x) for x in text.split(",") if x]
        if all(ok(v) for v in values):
            return values
    except ValueError:
        pass
    raise InputError(f"{flag}: expected comma-separated {what}")


def _object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a JSON object")
    return data


def _require(data: dict, key: str, where: str):
    if key not in _object(data, where):
        raise InputError(f"{where}: missing field {key!r}")
    return data[key]


def group_from_json(data: dict, where: str = "group") -> FgAbelianGroup:
    gens = _require(data, "generators", where)
    rels = data.get("relations", [])
    try:
        (n,) = require_ints([gens], "generators")
        return FgAbelianGroup.from_relation_rows(n, rels)
    except (TypeError, ValueError) as e:
        raise InputError(f"{where}: {e}")


def group_to_json(g: FgAbelianGroup) -> dict:
    return {"generators": g.num_generators, "relations": g.relations.to_rows()}


def system_from_json(data: dict, where: str = "system") -> StagedSystem:
    from .limits import StagedSystem

    kind = _require(data, "kind", where)
    matrices = _require(data, "matrices", where)
    try:
        mats = [IntMatrix.from_rows(m) for m in matrices]
        if kind == "stationary":
            if len(mats) != 1:
                raise InputError("stationary systems take exactly one matrix")
            return StagedSystem.stationary(mats[0])
        if kind == "prefix+tail":
            (period,) = require_ints([data.get("period", 1)], "period")
            if not (1 <= period <= len(mats)):
                raise InputError("period must be between 1 and the matrix count")
            return StagedSystem(tuple(mats[:-period]), tuple(mats[-period:]))
        raise InputError(f"unknown kind {kind!r}")
    except (TypeError, ValueError) as e:
        raise InputError(f"{where}: {e}")


def ordered_system_from_json(data: dict, where: str = "system") -> OrderedStagedSystem:
    from .dimension import OrderedStagedSystem
    from .limits import LimitElement

    sys_ = system_from_json(data, where)
    cone = data.get("cone", "simplicial")
    unit = data.get("unit")
    if unit is None:
        raise InputError(f"{where}: ordered systems need a stage-0 'unit' vector")
    try:
        return OrderedStagedSystem(system=sys_, cone=cone, unit=LimitElement(0, unit))
    except (TypeError, ValueError) as e:
        raise InputError(f"{where}: {e}")


def eplag_from_json(data: dict, where: str = "graph") -> EplagGroup:
    from .eplag import EplagGroup, PrimeLabeledGraph

    vertices = _object(_require(data, "vertices", where), f"{where}.vertices")
    names = sorted(vertices)
    labels = {name: vertices[name] for name in names}
    if not isinstance(data.get("edges", []), list):
        raise InputError(f"{where}.edges: expected a list")
    edges = []
    for e in data.get("edges", []):
        ends = _require(e, "ends", f"{where}.edges")
        if not (isinstance(ends, list) and all(isinstance(v, str) for v in ends)):
            raise InputError(f"{where}.edges: ends must be a list of vertex names")
        key = frozenset(ends)
        edges.append(key)
        labels[key] = _require(e, "label", f"{where}.edges")
    try:
        require_ints(labels.values(), "labels")
        P = require_ints(data.get("P", []), "P")
        return EplagGroup(PrimeLabeledGraph(tuple(names), tuple(edges), labels, P))
    except (TypeError, ValueError) as e:
        raise InputError(f"{where}: {e}")


def tree_from_json(data, where: str = "tree") -> dict:
    children = _object(data, where).get("children", [])
    if not isinstance(children, list):
        raise InputError(f"{where}.children: expected a list")
    for i, child in enumerate(children):
        tree_from_json(child, f"{where}.children[{i}]")
    return data


def eplag_to_json(group: EplagGroup) -> dict:
    g = group.graph
    return {
        "vertices": {v: g.labels[v] for v in g.vertices},
        "edges": [
            {"ends": sorted(e), "label": g.labels[e]} for e in sorted(g.edges, key=sorted)
        ],
        "P": list(g.divisibility_set),
    }


def qvector_from_json(data: dict, where: str = "target") -> dict:
    from fractions import Fraction

    _object(data, where)
    out = {}
    try:
        for v, val in data.items():
            if isinstance(val, bool):
                raise ValueError(f"{v}: expected a number or a fraction string, got {val}")
            # str(0.2) is "0.2": the decimal the JSON spells, not the nearest binary float
            out[v] = Fraction(str(val))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"{where}: {e}")
    return out


def invariant_to_json(inv: KirchbergInvariant) -> dict:
    k0 = inv.k0
    if isinstance(k0, FgAbelianGroup):
        k0_data = {"type": "fg", "invariant_factors": list(k0.invariant_factors)}
    elif isinstance(k0, LocalizedGroupDescriptor):
        k0_data = {
            "type": "localized",
            "prime": k0.prime,
            "free_rank": k0.free_rank,
            "torsion": list(k0.torsion),
        }
    else:
        k0_data = {"type": "eplag", "vertices": len(k0.graph.vertices)}
    return {
        "k0": k0_data,
        "unit": inv.shown_unit(),
        "k1": list(inv.k1.invariant_factors),
        "description": inv.describe(),
    }


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in _default_lines(report):
            print(line)


def _default_lines(report, prefix=""):
    lines = []
    if isinstance(report, dict):
        for k in sorted(report):
            v = report[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_default_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(report, list):
        # one line per item, so the items of a list of lists stay apart
        for v in report:
            lines.append(f"{prefix}- {json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_group(args) -> int:
    g = group_from_json(_load_json(args.group), args.group)
    divisors = _int_list("--divisors", args.divisors, "integers of at least 2", lambda n: n >= 2)
    report = {
        "invariant_factors": list(g.invariant_factors),
        "description": g.describe(),
        "divisibility": {
            # one predicate: on a finitely generated group divisible means uniquely divisible
            str(n): dict.fromkeys(("divisible", "uniquely_divisible"), is_n_divisible(g, n))
            for n in divisors
        },
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_limits(args) -> int:
    from .limits import build_limit_group

    sys_ = system_from_json(_load_json(args.system), args.system)
    g = build_limit_group(sys_)
    _emit({"limit_invariant_factors": list(g.invariant_factors), "description": g.describe()},
          args.format)
    return EXIT_OK


def cmd_schreier(args) -> int:
    from .schreier import kernel_oracle, schreier_generators

    target = group_from_json(_load_json(args.target), args.target)
    try:
        images = json.loads(args.images)
    except json.JSONDecodeError as e:
        raise InputError(f"--images: {e.msg}")
    try:
        oracle = kernel_oracle(target, images)
    except (TypeError, ValueError) as e:
        raise InputError(f"--images: {e}")
    for flag, bound in (("--word-bound", args.word_bound), ("--gen-bound", args.gen_bound)):
        if bound < 0:
            raise InputError(f"{flag}: must be at least 0")
    if args.gen_bound > oracle.ambient_rank:
        raise InputError(f"--gen-bound: at most the number of images ({oracle.ambient_rank})")
    gens, bound_reached = schreier_generators(oracle, args.word_bound, args.gen_bound)
    _emit({"count": len(gens), "generators": [str(g) for g in gens], "bound_reached": bound_reached}, args.format)
    return EXIT_OK


def cmd_rordam(args) -> int:
    from .rordam import rordam_pair, rordam_verify

    g = group_from_json(_load_json(args.group), args.group)
    report = rordam_verify(rordam_pair(g), g)
    _emit(
        {
            "pass": report.passed,
            "expected_invariant_factors": list(g.invariant_factors),
            "found": list(report.found),
        },
        args.format,
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_diagram(args) -> int:
    from .dimension import (
        diagram_from_json_dict,
        diagram_to_dot,
        diagram_to_json_dict,
        diagram_to_system,
        telescope,
        validate_diagram,
    )

    data = _load_json(args.diagram)
    try:
        d = diagram_from_json_dict(data)
    except KeyError as e:
        raise InputError(f"{args.diagram}: missing field {e}")
    except (TypeError, ValueError) as e:
        raise InputError(f"{args.diagram}: {e}")
    violations = validate_diagram(d)
    # every action but validate works on valid diagrams only
    if args.action == "validate" or violations:
        _emit({"valid": not violations, "violations": violations}, args.format)
        return EXIT_OK if not violations else EXIT_VERIFY_FAIL
    if args.action == "k0":
        D = diagram_to_system(d)
        report = {
            "levels": [
                {"rank": d.level_size(n), "multimatrix_dims": list(d.weights(n))}
                for n in range(d.num_levels)
            ],
            "cone": D.cone,
            "unit": list(D.unit.vector),
        }
        _emit(report, args.format)
        return EXIT_OK
    if args.action == "dot":
        text = diagram_to_dot(d)
        if args.out:
            _write("--out", args.out, text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    cuts = _int_list("--cuts", args.cuts)  # telescope
    try:
        out = telescope(d, cuts)
    except ValueError as e:
        raise InputError(str(e))
    print(json.dumps(diagram_to_json_dict(out), sort_keys=True, indent=2))
    return EXIT_OK


def _realization_report(result) -> dict:
    from .dimension import diagram_to_json_dict

    report = {
        "diagram": diagram_to_json_dict(result.diagram),
        "thetas": [
            [{"stage": t.stage, "vector": list(t.vector)} for t in level]
            for level in result.thetas
        ],
        "coverage": [
            {
                "level": rec.level,
                "stage": rec.element.stage,
                "vector": list(rec.element.vector),
                "expression": list(rec.expression),
                "appears_literally": rec.appears_literally,
                "from_enumerator": rec.from_enumerator,
            }
            for rec in result.coverage
        ],
    }
    if result.endomorphism is not None:
        report["q"] = [m.to_rows() for m in result.endomorphism.q]
    return report


def cmd_ehs(args) -> int:
    from .dimension import basis_atom_enumerator, ehs_realize, ehs_realize_with_endo, unit_atom_enumerator
    from .limits import LimitEndomorphism

    for flag, value in (("--depth", args.depth), ("--bound", args.bound)):
        if value < 0:
            raise InputError(f"{flag}: must be at least 0")
    D = ordered_system_from_json(_load_json(args.system), args.system)
    if D.is_positive(D.unit, args.bound) is False:
        raise InputError(f"{args.system}: unit: not in the positive cone")
    enumerator = (
        basis_atom_enumerator(D) if D.cone == "simplicial" else unit_atom_enumerator(D)
    )
    endo = None
    if args.endo:
        data = _load_json(args.endo)
        kind = _require(data, "kind", args.endo)
        if kind not in ("same_stage", "cross_stage"):
            raise InputError(f"{args.endo}: kind must be same_stage or cross_stage")
        rows = _require(data, "matrix", args.endo)
        try:
            matrix = IntMatrix.from_rows(rows)
        except (TypeError, ValueError) as e:
            raise InputError(f"{args.endo}: {e}")
        endo = LimitEndomorphism(matrix, cross_stage=(kind == "cross_stage"))
    if endo is None:
        result = ehs_realize(D, enumerator, args.depth, search_bound=args.bound)
    else:
        result = ehs_realize_with_endo(D, endo, enumerator, args.depth, search_bound=args.bound)
    _emit(_realization_report(result), args.format)
    return EXIT_OK


def cmd_eplag(args) -> int:
    from .eplag import (
        FINGERPRINT_EXP_BOUND,
        FINGERPRINT_PRIME_BOUND,
        divisibility_fingerprint,
        is_P_divisible_sample,
        membership,
        tree_to_eplag,
    )

    if args.action == "tree":
        if not args.tree:
            raise InputError("eplag tree: --tree is required")
        tree = tree_from_json(_load_json(args.tree), args.tree)
        P = _int_list("--p", args.p, "primes", is_prime)
        group = tree_to_eplag(tree, P)
        print(json.dumps(eplag_to_json(group), sort_keys=True, indent=2))
        return EXIT_OK
    if not args.graph:
        raise InputError(f"eplag {args.action}: --graph is required")
    group = eplag_from_json(_load_json(args.graph), args.graph)
    if args.action == "member":
        if args.bound is not None:
            raise InputError("--bound: membership is exact; only fingerprint takes a query exponent")
        if not args.target:
            raise InputError("eplag member: --target is required")
        target = qvector_from_json(_load_json(args.target), args.target)
        try:
            result = membership(group, target)
        except ValueError as e:
            raise InputError(f"{args.target}: {e}")
        report = {"status": result.status}
        if result.is_member:
            report |= {"bound": result.bound, "certificate": dict(sorted(result.certificate.items()))}
        _emit(report, args.format)
        return EXIT_OK
    K = FINGERPRINT_EXP_BOUND if args.bound is None else args.bound  # fingerprint
    if K < 1:
        raise InputError("--bound: must be at least 1")
    prime_bound = FINGERPRINT_PRIME_BOUND if args.prime_bound is None else args.prime_bound
    if prime_bound < 2:
        raise InputError("--prime-bound: must be at least 2")
    report = {
        "fingerprint": [list(s) for s in divisibility_fingerprint(group, K, prime_bound)],
        "p_divisible_sample": is_P_divisible_sample(group, K),
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from .dimension import diagram_to_dot, diagram_to_json_dict
    from .invariants import crossed_product_invariant, d_p_absorbing, o_infty_st_absorbing, pipeline

    if args.depth < 2:
        raise InputError("--depth: must be at least 2")
    if not is_prime(args.prime):
        raise InputError(f"--prime: {args.prime} is not prime")
    g = group_from_json(_load_json(args.group), args.group)
    report = pipeline(g, args.depth)
    inv = report.pv.invariant  # every invariant value below is read from the PV stage
    out = {
        "group": group_to_json(g),
        "prime": args.prime,
        "depth": args.depth,
        "stages": {
            "rordam": {
                "pass": report.rordam.passed,
                "expected": list(g.invariant_factors),
                "found": list(report.rordam.found),
            },
            "realization": {
                "pass": report.realization_valid,
                "levels": report.realization.diagram.num_levels,
            },
            "pv": {
                "pass": report.pv.passed,
                "cokernel_invariant_factors": list(inv.k0.invariant_factors),
                "kernel_rank": inv.k1.free_rank,
            },
        },
        "invariant": invariant_to_json(inv),
        "absorption": {
            "o_infty_standard": o_infty_st_absorbing(inv),
            f"d_{args.prime}": d_p_absorbing(inv.k0, args.prime),
        },
        "crossed_product_invariant":  # the localization table covers K1 = 0 only
            invariant_to_json(crossed_product_invariant(inv, args.prime)) if inv.k1.is_trivial() else None,
        "all_passed": report.all_passed,
    }
    if args.emit_diagram:
        _write("--emit-diagram", args.emit_diagram,
               json.dumps(diagram_to_json_dict(report.realization.diagram), sort_keys=True, indent=2))
    if args.dot:
        _write("--dot", args.dot, diagram_to_dot(report.realization.diagram))
    _emit(out, args.format)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL


def cmd_invariant(args) -> int:
    from .invariants import (
        absorption_equivalences,
        crossed_product_invariant,
        d_p_absorbing,
        group_to_invariant,
        kp_isomorphic,
        o_infty_st_absorbing,
    )

    if args.prime is not None and not is_prime(args.prime):
        raise InputError(f"--prime: {args.prime} is not prime")
    g = group_from_json(_load_json(args.group), args.group)
    inv = group_to_invariant(g)
    report = {
        "invariant": invariant_to_json(inv),
        "o_infty_standard_absorbing": o_infty_st_absorbing(inv),
    }
    if args.prime:
        report[f"d_{args.prime}_absorbing"] = d_p_absorbing(g, args.prime)
        report["crossed_product_invariant"] = invariant_to_json(
            crossed_product_invariant(inv, args.prime)
        )
    if args.compare:
        other = group_to_invariant(group_from_json(_load_json(args.compare), args.compare))
        iso = kp_isomorphic(inv, other)
        report["comparison"] = {
            "kp_isomorphic": iso if iso is not None else "unknown",
        }
        if args.prime:
            eqs = absorption_equivalences(inv, other, args.prime)
            report["comparison"]["equivalences"] = {
                k: (v if v is not None else "unknown") for k, v in eqs.items()
            }
    _emit(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afkit",
        description="Exact staged-algebra toolkit: groups, limits, diagrams, invariants.",
    )
    parser.add_argument("--format", choices=["json", "text"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="canonical form and divisibility of a presented group")
    p.add_argument("group")
    p.add_argument("--divisors", default="2,3,5")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("limits", help="finitely generated limit of a staged system")
    p.add_argument("system")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("schreier", help="free generators of a kernel subgroup")
    p.add_argument("--target", required=True)
    p.add_argument("--images", required=True, help="JSON list of image vectors")
    p.add_argument("--word-bound", type=int, default=4)
    p.add_argument("--gen-bound", type=int, default=2)
    p.set_defaults(func=cmd_schreier)

    p = sub.add_parser("rordam", help="build and verify the staged pair for a group")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_rordam)

    p = sub.add_parser("diagram", help="validate, summarize, render, or telescope a diagram")
    p.add_argument("action", choices=["validate", "k0", "dot", "telescope"])
    p.add_argument("diagram")
    p.add_argument("--cuts", default="0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("ehs", help="realize an ordered system as a diagram")
    p.add_argument("--system", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--endo", help="stationary endomorphism JSON")
    p.add_argument("--bound", type=int, default=48)
    p.set_defaults(func=cmd_ehs)

    p = sub.add_parser("eplag", help="labeled-graph groups: build, test membership, fingerprint")
    p.add_argument("action", choices=["tree", "member", "fingerprint"])
    p.add_argument("--tree")
    p.add_argument("--p", default="", help="comma-separated divisibility primes")
    p.add_argument("--graph")
    p.add_argument("--target")
    p.add_argument("--bound", type=int, help="fingerprint: query exponent K (default: eplag's FINGERPRINT_EXP_BOUND)")
    p.add_argument("--prime-bound", type=int)  # default FINGERPRINT_PRIME_BOUND
    p.set_defaults(func=cmd_eplag)

    p = sub.add_parser("pipeline", help="full invariant pipeline for a presented group")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    # unused: bench/workloads.py still passes it, until ROADMAP item 11's benchmark batch drops it
    p.add_argument("--width", help=argparse.SUPPRESS)
    p.add_argument("--emit-diagram")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("invariant", help="invariant triple and absorption flags")
    p.add_argument("group")
    p.add_argument("--prime", type=int)
    p.add_argument("--compare", help="second group JSON to compare against")
    p.set_defaults(func=cmd_invariant)

    return parser


_parser = functools.cache(build_parser)  # built on the first call, then shared


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (RuntimeError, ValueError) as e:  # the reported errors' bases
        for module, name, code in REPORTED_ERRORS:
            loaded = sys.modules.get(f"{__package__}.{module}")  # not loaded: e is none of its classes
            if loaded is not None and isinstance(e, getattr(loaded, name)):
                _emit({"error": str(e)}, args.format)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
