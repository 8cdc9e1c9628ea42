"""Command-line front end: JSON in, reports and DOT out.

The CLI owns every file format: each JSON reader and writer is here, and
a malformed file's error names the field.  Exit codes: 0 all checks
passed, 1 a verification failed, 2 malformed input, 3 a bounded search was
exceeded or the limit is proved not finitely generated.  Output is
deterministic: JSON one line per document with sorted keys, DOT
stable-sorted by level and vertex index.  Each command imports the library
modules it uses when it runs, so a call loads only those: every process is
one call, and loading all of them takes longer than most calls.

Flags are declared once, in :func:`build_parser`, each ``diagram`` and
``eplag`` action declaring only those it reads.  ``main`` reads a plain argv
(leading ``--format``, the subcommand and, for ``diagram`` and ``eplag``,
its action, exact ``--flag value`` pairs and positionals, no value starting
with "-") with a lean reader over those declarations, at a tenth of the
cost of argparse's generic matching.  Help, ``--flag=value``,
abbreviations, "--" and every usage error go through argparse unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import TYPE_CHECKING

from .abelian import (
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    PrimalityBoundExceeded,
    is_n_divisible,
    is_prime,
    require_ints,
)

if TYPE_CHECKING:
    from .dimension import BratteliDiagram, OrderedStagedSystem
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


def _parse(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{where}: line {e.lineno} column {e.colno}: {e.msg}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text")
    return _parse(text, path)


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
    except ValueError:
        values = None
    if values is None or not all(ok(v) for v in values):
        raise InputError(f"{flag}: expected comma-separated {what}")
    return values


def _is_prime(flag: str, n: int) -> bool:
    """:func:`is_prime`, a number too large to decide being an InputError on ``flag``."""
    try:
        return is_prime(n)
    except PrimalityBoundExceeded as e:
        raise InputError(f"{flag}: {e}")


def _require_prime(flag: str, n: int) -> None:
    if not _is_prime(flag, n):
        raise InputError(f"{flag}: {n} is not prime")


def _require_at_least(low: int, *flags: tuple) -> None:
    """InputError on the first (flag, value) pair whose value is below ``low``."""
    for flag, value in flags:
        if value < low:
            raise InputError(f"{flag}: must be at least {low}")


@contextlib.contextmanager
def _input(where: str):
    """A TypeError or ValueError raised inside becomes InputError("<where>: <message>")."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise InputError(f"{where}: {e}")


def _object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a JSON object")
    return data


def _require(data: dict, key: str, where: str):
    if key not in _object(data, where):
        raise InputError(f"{where}: missing field {key!r}")
    return data[key]


def _list(value, where: str, each=None) -> list:
    """``value``, which must be a list; ``each(item, "<where>[i]")`` checks each item."""
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list")
    if each:
        for i, item in enumerate(value):
            each(item, f"{where}[{i}]")
    return value


_rows = functools.partial(_list, each=_list)  # a matrix's rows; the matrix checks their entries


def group_from_json(data: dict, where: str) -> FgAbelianGroup:
    gens = _require(data, "generators", where)
    rels = _rows(data.get("relations", []), f"{where}.relations")
    with _input(f"{where}.generators"):
        (n,) = require_ints([gens], "generators")
    _require_at_least(0, (f"{where}.generators", n))  # before the rows are measured against n
    with _input(f"{where}.relations"):
        return FgAbelianGroup.from_relation_rows(n, rels)


def group_to_json(g: FgAbelianGroup) -> dict:
    return {"generators": g.num_generators, "relations": g.relations.to_rows()}


def system_from_json(data: dict, where: str) -> StagedSystem:
    from .limits import StagedSystem

    kind = _require(data, "kind", where)
    matrices = _list(_require(data, "matrices", where), f"{where}.matrices", _rows)
    with _input(f"{where}.matrices"):
        mats = [IntMatrix.from_rows(m) for m in matrices]
    with _input(where):
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


def ordered_system_from_json(data: dict, where: str) -> OrderedStagedSystem:
    from .dimension import SIMPLICIAL, OrderedStagedSystem
    from .limits import LimitElement

    sys_ = system_from_json(data, where)
    cone = data.get("cone", SIMPLICIAL)
    unit = _list(_require(data, "unit", where), f"{where}.unit")  # a stage-0 vector in the cone
    with _input(f"{where}.unit"):
        unit = LimitElement(0, unit)
    with _input(where):
        return OrderedStagedSystem(system=sys_, cone=cone, unit=unit)


def eplag_from_json(data: dict, where: str) -> EplagGroup:
    from .eplag import EplagGroup, PrimeLabeledGraph

    vertices = _object(_require(data, "vertices", where), f"{where}.vertices")
    names = sorted(vertices)
    with _input(f"{where}.vertices"):
        labels = dict(zip(names, require_ints([vertices[name] for name in names], "labels")))
    edges = []
    for i, e in enumerate(_list(data.get("edges", []), f"{where}.edges")):
        at = f"{where}.edges[{i}]"
        ends, label = _require(e, "ends", at), _require(e, "label", at)
        if not (isinstance(ends, list) and all(isinstance(v, str) for v in ends)):
            raise InputError(f"{at}: ends must be a list of vertex names")
        key = frozenset(ends)
        try:  # _input's with-block, once per edge, made this reader a third slower
            (labels[key],) = require_ints([label], "labels")
        except ValueError as err:
            raise InputError(f"{at}: {err}")
        edges.append(key)
    P = _list(data.get("P", []), f"{where}.P")
    with _input(where):
        P = require_ints(P, "P")
        return EplagGroup(PrimeLabeledGraph(tuple(names), tuple(edges), labels, P))


def tree_from_json(data, where: str) -> dict:
    _list(_object(data, where).get("children", []), f"{where}.children", tree_from_json)
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


def diagram_from_json(data, where: str) -> BratteliDiagram:
    from .dimension import BratteliDiagram, DiagramLevel

    levels = []
    for i, entry in enumerate(_list(_require(data, "levels", where), f"{where}.levels")):
        at = f"{where}.levels[{i}]"
        size, weights = _require(entry, "l", at), _list(_require(entry, "w", at), f"{at}.w")
        rows = None if entry.get("m") is None else _rows(entry["m"], f"{at}.m")
        with _input(at):
            (size,), weights = require_ints([size], "level size"), require_ints(weights, "weights")
        with _input(f"{at}.m"):
            levels.append(DiagramLevel(size, weights, None if rows is None else IntMatrix.from_rows(rows)))
    tail = _list(data.get("tail", []), f"{where}.tail", _rows)
    with _input(f"{where}.tail"):
        return BratteliDiagram(tuple(levels), tuple(map(IntMatrix.from_rows, tail)))


def diagram_to_json(d: BratteliDiagram) -> dict:
    out = {"levels": []}
    for lev in d.levels:
        entry = {"l": lev.size, "w": list(lev.weights)}
        if lev.incidence is not None:
            entry["m"] = lev.incidence.to_rows()
        out["levels"].append(entry)
    if d.tail:
        out["tail"] = [t.to_rows() for t in d.tail]
    return out


def qvector_from_json(data: dict, where: str) -> dict:
    from fractions import Fraction

    out = {}
    for v, val in _object(data, where).items():
        with _input(f"{where}: {v}"):
            if isinstance(val, bool):
                raise ValueError(f"expected a number or a fraction string, got {val}")
            try:
                # str(0.2) is "0.2": the decimal the JSON spells, not the nearest binary float
                out[v] = Fraction(str(val))
            except ZeroDivisionError:
                raise ValueError("zero denominator")
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


_dump = functools.partial(json.dumps, sort_keys=True)  # every JSON afkit writes; no indent, so the C encoder runs

def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(_dump(report))
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
    images = _parse(args.images, "--images")
    if not (isinstance(images, list) and all(isinstance(v, list) for v in images)):
        raise InputError("--images: expected a JSON list of image vectors")
    with _input("--images"):
        oracle = kernel_oracle(target, images)
    _require_at_least(0, ("--word-bound", args.word_bound), ("--gen-bound", args.gen_bound))
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
    from .dimension import SIMPLICIAL, diagram_to_dot, telescope, validate_diagram

    d = diagram_from_json(_load_json(args.diagram), args.diagram)
    violations = validate_diagram(d)
    # every action but validate works on valid diagrams only
    if args.action == "validate" or violations:
        _emit({"valid": not violations, "violations": violations}, args.format)
        return EXIT_OK if not violations else EXIT_VERIFY_FAIL
    if args.action == "k0":  # diagram_to_system's cone and unit, without validating again
        report = {
            "levels": [
                {"rank": d.level_size(n), "multimatrix_dims": list(d.weights(n))}
                for n in range(d.num_levels)
            ],
            "cone": SIMPLICIAL,
            "unit": list(d.weights(0)),
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
    with _input("--cuts"):
        out = telescope(d, cuts)
    print(_dump(diagram_to_json(out)))
    return EXIT_OK


def _realization_report(result) -> dict:
    report = {
        "diagram": diagram_to_json(result.diagram),
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
    from .dimension import SIMPLICIAL, basis_atom_enumerator, ehs_realize, ehs_realize_with_endo, unit_atom_enumerator
    from .limits import LimitEndomorphism

    _require_at_least(0, ("--depth", args.depth), ("--bound", args.bound))
    D = ordered_system_from_json(_load_json(args.system), args.system)
    if D.is_positive(D.unit, args.bound) is False:
        raise InputError(f"{args.system}: unit: not in the positive cone")
    enumerator = basis_atom_enumerator(D) if D.cone == SIMPLICIAL else unit_atom_enumerator(D)
    endo = None
    if args.endo:
        data = _load_json(args.endo)
        kind = _require(data, "kind", args.endo)
        if kind not in ("same_stage", "cross_stage"):
            raise InputError(f"{args.endo}: kind must be same_stage or cross_stage")
        rows = _rows(_require(data, "matrix", args.endo), f"{args.endo}.matrix")
        with _input(f"{args.endo}.matrix"):
            matrix = IntMatrix.from_rows(rows)
        with _input(args.endo):
            endo = LimitEndomorphism(matrix, cross_stage=(kind == "cross_stage"))
            n = D.system.stage_rank(0)
            if (endo.matrix.rows, endo.matrix.cols) != (n, n):
                raise ValueError(f"matrix is {endo.matrix.rows}x{endo.matrix.cols}, stage 0 has rank {n}")
            if not endo.check_commuting(D.system):
                raise ValueError("matrix does not commute with the connecting maps")
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
        tree = tree_from_json(_load_json(args.tree), args.tree)
        P = _int_list("--p", args.p, "primes", functools.partial(_is_prime, "--p"))
        with _input("--p"):  # the graph refuses a prime listed twice
            group = tree_to_eplag(tree, P)
        print(_dump(eplag_to_json(group)))
        return EXIT_OK
    group = eplag_from_json(_load_json(args.graph), args.graph)
    if args.action == "member":
        target = qvector_from_json(_load_json(args.target), args.target)
        with _input(args.target):
            result = membership(group, target)
        report = {"status": result.status}
        if result.is_member:
            report |= {"bound": result.bound, "certificate": dict(sorted(result.certificate.items()))}
        _emit(report, args.format)
        return EXIT_OK
    K = FINGERPRINT_EXP_BOUND if args.bound is None else args.bound  # fingerprint
    prime_bound = FINGERPRINT_PRIME_BOUND if args.prime_bound is None else args.prime_bound
    _require_at_least(1, ("--bound", K))
    _require_at_least(2, ("--prime-bound", prime_bound))
    report = {
        "fingerprint": [list(s) for s in divisibility_fingerprint(group, K, prime_bound)],
        "p_divisible_sample": is_P_divisible_sample(group, K),
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from .dimension import diagram_to_dot
    from .invariants import crossed_product_invariant, d_p_absorbing, o_infty_st_absorbing, pipeline

    _require_at_least(2, ("--depth", args.depth))
    _require_prime("--prime", args.prime)
    g = group_from_json(_load_json(args.group), args.group)
    report = pipeline(g, args.depth)
    inv = report.pv.invariant  # every invariant value below is read from the PV stage
    out = {
        "group": group_to_json(g),
        "prime": args.prime,
        "depth": args.depth,
        "stages": {
            "realization": {
                "pass": report.realization_valid,
                "levels": report.realization.diagram.num_levels,
            },
            "pv": {
                "pass": report.pv.passed,
                "expected": list(g.invariant_factors),
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
        _write("--emit-diagram", args.emit_diagram, _dump(diagram_to_json(report.realization.diagram)))
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

    if args.prime is not None:
        _require_prime("--prime", args.prime)
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
    p.set_defaults(func=cmd_diagram)
    actions = p.add_subparsers(dest="action", required=True)
    for name in ("validate", "k0", "dot", "telescope"):
        actions.add_parser(name).add_argument("diagram")
    actions.choices["dot"].add_argument("--out")
    actions.choices["telescope"].add_argument("--cuts", default="0")

    p = sub.add_parser("ehs", help="realize an ordered system as a diagram")
    p.add_argument("--system", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--endo", help="stationary endomorphism JSON")
    p.add_argument("--bound", type=int, default=48)
    p.set_defaults(func=cmd_ehs)

    p = sub.add_parser("eplag", help="labeled-graph groups: build, test membership, fingerprint")
    p.set_defaults(func=cmd_eplag)
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("tree")
    a.add_argument("--tree", required=True)
    a.add_argument("--p", default="", help="comma-separated divisibility primes")
    a = actions.add_parser("member")
    a.add_argument("--graph", required=True)
    a.add_argument("--target", required=True)
    a = actions.add_parser("fingerprint", allow_abbrev=False)  # or tree's --p reads as --prime-bound
    a.add_argument("--graph", required=True)
    a.add_argument("--bound", type=int, help="query exponent K (default: eplag's FINGERPRINT_EXP_BOUND)")
    a.add_argument("--prime-bound", type=int)  # default FINGERPRINT_PRIME_BOUND

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


@functools.cache
def _grammar(parser: argparse.ArgumentParser) -> tuple:
    """What :func:`_read_args` reads of ``parser``'s declarations.

    Its one-value options by exact flag; its positionals in order, None for
    one that takes other than one value; the values a fresh namespace
    starts with, string defaults passed through ``type`` as ``parse_args``
    passes them; and its required actions.

    Each argparse internal read here and in :func:`_read_args` is pinned by a
    test: ``ArgumentParser._actions`` and ``._defaults``, ``argparse._StoreAction``,
    ``.PARSER`` and ``.SUPPRESS``, and a ``_SubParsersAction``'s ``choices``, name -> parser.
    """
    options, positionals, defaults = {}, [], {}
    for a in parser._actions:
        if not a.option_strings:
            positionals.append(a if a.nargs in (None, argparse.PARSER) else None)
        elif type(a) is argparse._StoreAction and a.nargs is None:  # not -h, not a flag without a value
            options.update(dict.fromkeys(a.option_strings, a))
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            defaults[a.dest] = a.type(a.default) if a.type and isinstance(a.default, str) else a.default
    return options, positionals, parser._defaults | defaults, [a for a in parser._actions if a.required]


def _read_args(argv: list):
    """The Namespace ``_parser().parse_args(argv)`` gives, or None where argparse must decide.

    It reads exact ``--flag value`` pairs and positionals, a subcommand's
    name handing the rest to that subcommand's parser.  Anything else is
    None: a value starting with "-" (so "--", "-h" and negative numbers), an
    "=" form, an abbreviation, an unknown flag, a missing value or required
    argument, a failed conversion, a bad choice, or too many positionals.
    """
    values, parser, tokens = {}, _parser(), iter(argv)
    while parser is not None:
        options, positionals, defaults, required = _grammar(parser)
        values |= defaults  # a subcommand's values replace its parent's, as in parse_args
        seen, waiting, parser = set(), iter(positionals), None
        for token in tokens:
            if token[:1] == "-":
                action = options.get(token)
                token = next(tokens, "-")  # a missing value reads as one starting with "-"
                if action is None or token[:1] == "-":
                    return None
            else:
                action = next(waiting, None)
                if action is None:
                    return None
            try:
                value = action.type(token) if action.type else token
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            seen.add(action)
            if action.nargs == argparse.PARSER:
                parser = action.choices[value]
                break
        if not seen.issuperset(required):
            return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv) or _parser().parse_args(argv)
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
