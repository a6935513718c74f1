"""Command-line interface over structure-constant files.

Every subcommand reads an algebra from a JSON file (see fileformat), runs one
computation, and prints either human-readable text or key-sorted JSON.  Exit
codes: 0 success (for verify: every applicable check holds), 1 an applicable
check failed, 2 input error, 3 the operation is unsupported for this input
(enumeration over the rationals, budget exhaustion, unmet preconditions).
Errors go to stderr, results to stdout.
"""

import argparse
import fractions
import json
import os
import sys
from enum import Enum

from .algebra import Algebra, IdentityKind, classify, first_identity_failure
from .corpus import builtin_fixtures, search
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    RadicalKind,
    frattini,
    minimal_ideals,
    radical,
)
from .errors import (
    AlgebraFileError,
    BudgetExceededError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedOperationError,
    UsageError,
)
from .fields import GF, QQ
from .fileformat import _field_json, document_json, parse_document, serialize_document
from .linalg import Subspace
from .series import SeriesKind, chief_series, compute_series, nilpotency_profile
from .structure import decompose_semisimple_bicommutative, phi_free_split
from .verify import CheckId, describe, verify, verify_all

# -- rendering ----------------------------------------------------------------


def _names(algebra):
    if algebra.labels is not None:
        return algebra.labels
    return tuple(f"e{i + 1}" for i in range(algebra.dim))


def _render_combo(field, names, row):
    parts = []
    for i, x in enumerate(row):
        if x == field.zero:
            continue
        c = field.render(x)
        parts.append(names[i] if c == "1" else f"{c}*{names[i]}")
    return " + ".join(parts) if parts else "0"


def _render_subspace(sub, names):
    if sub.dim == 0:
        return "0"
    return "span{" + ", ".join(_render_combo(sub.field, names, row) for row in sub.basis) + "}"


def _render_products(algebra):
    names = _names(algebra)
    zero = algebra.field.zero
    lines = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            vec = algebra.table[i][j]
            if all(x == zero for x in vec):
                continue
            combo = _render_combo(algebra.field, names, vec)
            lines.append(f"{names[i]}*{names[j]} = {combo}")
    return lines


def _jsonable(value):
    """Recursively convert computation output into JSON-ready data.

    Subspaces become lists of basis rows; rational scalars become strings;
    finite-field scalars stay integers; enums become their values.
    """
    if isinstance(value, Subspace):
        return [[value.field.render(x) for x in row] for row in value.basis]
    if isinstance(value, Algebra):
        return document_json(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, fractions.Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def _render_value(value, names):
    if isinstance(value, Subspace):
        return _render_subspace(value, names)
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, dict):
        inner = ", ".join(f"{k}: {_render_value(v, names)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v, names) for v in value) + "]"
    return str(value)


# -- input --------------------------------------------------------------------


def _load(ns):
    try:
        with open(ns.file, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise AlgebraFileError(f"cannot read {ns.file}: {e.strerror or e}")
    return parse_document(data)


def _budget(ns):
    vectors = getattr(ns, "budget_vectors", None)
    subspaces = getattr(ns, "budget_subspaces", None)
    if vectors is None and subspaces is None:
        return DEFAULT_BUDGET
    try:
        return EnumerationBudget(
            max_vectors=vectors if vectors is not None else DEFAULT_BUDGET.max_vectors,
            max_subspaces=subspaces
            if subspaces is not None
            else DEFAULT_BUDGET.max_subspaces,
        )
    except ValueError as e:
        raise UsageError(str(e))


def _parse_field_arg(text):
    if text.strip() in ("Q", "q"):
        return QQ
    try:
        p = int(text)
    except ValueError:
        raise UsageError(f"field must be Q or a prime, got {text!r}")
    return GF(p)


# -- subcommands --------------------------------------------------------------


def cmd_info(ns):
    doc = _load(ns)
    A = doc.algebra
    names = _names(A)
    kinds = classify(A)
    identities = {kind.value: kind in kinds for kind in IdentityKind}
    payload = {
        "field": _field_json(A.field),
        "dim": A.dim,
        "basis": list(names),
        "name": doc.name,
        "note": doc.note,
        "identities": identities,
        "nilpotency": _dataclass_dict(nilpotency_profile(A)),
        "products": _render_products(A),
    }
    lines = [
        f"field: {A.field!r}",
        f"dim: {A.dim}",
        f"basis: {', '.join(names)}",
    ]
    if doc.name:
        lines.insert(0, f"name: {doc.name}")
    if doc.note:
        lines.append(f"note: {doc.note}")
    lines.append("products:")
    if payload["products"]:
        lines.extend(f"  {p}" for p in payload["products"])
    else:
        lines.append("  (all zero)")
    lines.append("identities:")
    for kind in IdentityKind:
        lines.append(f"  {kind.value}: {identities[kind.value]}")
    lines.append("nilpotency:")
    for key in ("solvable", "right_nilpotent", "left_nilpotent", "weakly_nilpotent", "nilpotent"):
        lines.append(f"  {key}: {payload['nilpotency'][key]}")
    return payload, lines, 0


def cmd_check(ns):
    doc = _load(ns)
    A = doc.algebra
    kind = IdentityKind(ns.identity)
    failure = first_identity_failure(A, kind)
    holds = failure is None
    names = _names(A)
    witness = None
    if failure is not None:
        part, indices, lhs, rhs = failure
        witness = {
            "identity": part.value,
            "basis_indices": list(indices),
            "lhs": list(lhs),
            "rhs": list(rhs),
        }
    payload = {"identity": kind.value, "holds": holds, "witness": _jsonable(witness)}
    lines = [f"{kind.value}: {'holds' if holds else 'fails'}"]
    if witness is not None:
        tuple_text = ", ".join(names[i] for i in witness["basis_indices"])
        lines.append(f"  fails {witness['identity']} on ({tuple_text})")
        lines.append(f"  lhs = {_render_combo(A.field, names, failure[2])}")
        lines.append(f"  rhs = {_render_combo(A.field, names, failure[3])}")
    return payload, lines, 0 if holds else 1


def cmd_series(ns):
    doc = _load(ns)
    A = doc.algebra
    kind = SeriesKind(ns.kind)
    result = compute_series(A, kind)
    names = _names(A)
    payload = {
        "kind": kind.value,
        "terms": [
            {"dim": t.dim, "basis": _jsonable(t)} for t in result.terms
        ],
        "terminated": result.terminated,
        "stabilized_at": result.stabilized_at,
        "index": result.index,
    }
    lines = [f"{kind.value} series:"]
    for pos, term in enumerate(result.terms, start=1):
        lines.append(f"  term {pos}: dim {term.dim}  {_render_subspace(term, names)}")
    if result.terminated:
        lines.append(f"reaches 0 at index {result.index}")
    else:
        lines.append(f"stabilizes without reaching 0 (repeat at index {result.stabilized_at})")
    return payload, lines, 0


def cmd_radical(ns):
    doc = _load(ns)
    A = doc.algebra
    kind = RadicalKind(ns.which)
    sub = radical(A, kind, _budget(ns))
    names = _names(A)
    payload = {"which": kind.value, "dim": sub.dim, "radical": _jsonable(sub)}
    lines = [f"{kind.value} radical: dim {sub.dim}  {_render_subspace(sub, names)}"]
    return payload, lines, 0


def cmd_frattini(ns):
    doc = _load(ns)
    A = doc.algebra
    data = frattini(A, _budget(ns))
    names = _names(A)
    payload = {
        "subalgebra": _jsonable(data.subalgebra),
        "subalgebra_dim": data.subalgebra.dim,
        "ideal": _jsonable(data.ideal),
        "ideal_dim": data.ideal.dim,
    }
    lines = [
        f"frattini subalgebra: dim {data.subalgebra.dim}  {_render_subspace(data.subalgebra, names)}",
        f"frattini ideal: dim {data.ideal.dim}  {_render_subspace(data.ideal, names)}",
    ]
    return payload, lines, 0


def cmd_minimal_ideals(ns):
    doc = _load(ns)
    A = doc.algebra
    found = minimal_ideals(A, _budget(ns))
    names = _names(A)
    payload = {
        "count": len(found),
        "minimal_ideals": [_jsonable(b) for b in found],
    }
    lines = [f"minimal ideals: {len(found)}"]
    lines.extend(f"  dim {b.dim}  {_render_subspace(b, names)}" for b in found)
    return payload, lines, 0


def cmd_chief_series(ns):
    doc = _load(ns)
    A = doc.algebra
    series = chief_series(A, budget=_budget(ns))
    names = _names(A)
    payload = {
        "ideals": [_jsonable(b) for b in series.ideals],
        "dims": [b.dim for b in series.ideals],
        "factor_dims": list(series.factor_dims),
    }
    lines = ["chief series:"]
    for b in series.ideals:
        lines.append(f"  dim {b.dim}  {_render_subspace(b, names)}")
    lines.append(f"factor dims: {', '.join(str(d) for d in series.factor_dims) or '(none)'}")
    return payload, lines, 0


def cmd_decompose(ns):
    doc = _load(ns)
    A = doc.algebra
    dec = decompose_semisimple_bicommutative(A, _budget(ns))
    names = _names(A)
    payload = {
        "simples": [_jsonable(b) for b in dec.simples],
        "complement": _jsonable(dec.complement),
        "square": _jsonable(dec.square),
        "action_pattern": [list(p) for p in dec.action_pattern],
    }
    lines = [f"square: dim {dec.square.dim}  {_render_subspace(dec.square, names)}"]
    lines.append(f"simple summands: {len(dec.simples)}")
    for b, (left_zero, right_zero) in zip(dec.simples, dec.action_pattern):
        sides = []
        if left_zero:
            sides.append("S*U = 0")
        if right_zero:
            sides.append("U*S = 0")
        lines.append(f"  dim {b.dim}  {_render_subspace(b, names)}  ({', '.join(sides)})")
    lines.append(
        f"square-zero complement U: dim {dec.complement.dim}  "
        f"{_render_subspace(dec.complement, names)}"
    )
    return payload, lines, 0


def _dataclass_dict(obj):
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


def cmd_split(ns):
    doc = _load(ns)
    A = doc.algebra
    result = phi_free_split(A, _budget(ns))
    names = _names(A)
    payload = {
        "zero_socle": _jsonable(result.zero_socle),
        "complement": _jsonable(result.complement),
        "bicommutative": _jsonable(_dataclass_dict(result.bicommutative))
        if result.bicommutative
        else None,
        "novikov": _jsonable(_dataclass_dict(result.novikov)) if result.novikov else None,
    }
    lines = [
        f"zero socle: dim {result.zero_socle.dim}  {_render_subspace(result.zero_socle, names)}",
        f"complement subalgebra: dim {result.complement.dim}  "
        f"{_render_subspace(result.complement, names)}",
    ]
    if result.bicommutative is not None:
        extras = result.bicommutative
        lines.append("bicommutative refinement:")
        lines.append(f"  radical: {_render_subspace(extras.radical, names)}")
        lines.append(f"  zero part: {_render_subspace(extras.zero_part, names)}")
        lines.append(f"  semisimple part: {_render_subspace(extras.semisimple_part, names)}")
        lines.append(f"  simple summands: {len(extras.simples)}")
    if result.novikov is not None:
        extras = result.novikov
        lines.append("novikov refinement:")
        lines.append(f"  radical: {_render_subspace(extras.radical, names)}")
        lines.append(
            f"  complement-radical overlap is annihilated "
            f"({extras.orientation} orientation)"
        )
    return payload, lines, 0


def cmd_verify(ns):
    doc = _load(ns)
    A = doc.algebra
    budget = _budget(ns)
    if ns.check is not None:
        try:
            wanted = CheckId(ns.check)
        except ValueError:
            raise UsageError(f"unknown check id {ns.check!r}")
        reports = [verify(A, wanted, certified=doc.certified, budget=budget)]
    else:
        reports = verify_all(A, certified=doc.certified, budget=budget)
    names = _names(A)
    checks = []
    passed = failed = skipped = 0
    lines = []
    for r in reports:
        entry = {
            "check": r.check.value,
            "description": describe(r.check),
            "applicable": r.applicable,
            "holds": r.holds,
            "reason": r.reason,
            "witness": _jsonable(r.witness),
            "counterexample": _jsonable(r.counterexample),
            "assumed": list(r.assumed),
            "notes": list(r.notes),
        }
        checks.append(entry)
        if not r.applicable:
            skipped += 1
            lines.append(f"SKIP {r.check.value}: {r.reason}")
        elif r.holds:
            passed += 1
            lines.append(f"PASS {r.check.value}")
        else:
            failed += 1
            detail = r.reason
            if detail is None and r.counterexample:
                detail = r.counterexample.get("problem")
            lines.append(f"FAIL {r.check.value}" + (f": {detail}" if detail else ""))
            if r.counterexample:
                for key, value in r.counterexample.items():
                    if key == "problem" and value == detail:
                        continue
                    lines.append(f"  {key}: {_render_value(value, names)}")
        for text in r.assumed:
            lines.append(f"  assumed: {text}")
    payload = {
        "checks": checks,
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
    }
    lines.append(f"{passed} passed, {failed} failed, {skipped} not applicable")
    return payload, lines, 1 if failed else 0


def cmd_search(ns):
    field = _parse_field_arg(ns.field)
    kind = IdentityKind(ns.identity)
    budget = _budget(ns)
    if ns.samples is not None:
        sparsity = ns.sparsity if ns.sparsity is not None else 0.75
        hits = search(
            field,
            ns.dim,
            kind,
            mode="random",
            samples=ns.samples,
            seed=ns.seed if ns.seed is not None else 0,
            sparsity=sparsity,
            budget=budget,
        )
    else:
        sparsity = int(ns.sparsity) if ns.sparsity is not None else None
        hits = search(
            field, ns.dim, kind, mode="exhaustive", sparsity=sparsity, budget=budget
        )
    found = list(hits)
    payload = {
        "field": _field_json(field),
        "dim": ns.dim,
        "identity": kind.value,
        "count": len(found),
        "algebras": [document_json(A) for A in found],
    }
    lines = [f"found {len(found)} algebras"]
    for A in found:
        products = "; ".join(_render_products(A)) or "(zero algebra)"
        lines.append(f"  {products}")
    return payload, lines, 0


def cmd_fixtures(ns):
    fixtures = builtin_fixtures()
    rows = []
    lines = []
    emit_dir = ns.emit
    if emit_dir is not None:
        os.makedirs(emit_dir, exist_ok=True)
    for f in fixtures:
        row = {
            "name": f.name,
            "field": _field_json(f.algebra.field),
            "dim": f.algebra.dim,
            "note": f.note,
            "certified": sorted(f.certified) if f.certified else [],
        }
        text = f"{f.name}: {f.algebra.field!r} dim {f.algebra.dim}  {f.note}"
        if emit_dir is not None:
            path = os.path.join(emit_dir, f"{f.name}.json")
            with open(path, "wb") as fh:
                fh.write(
                    serialize_document(
                        f.algebra, name=f.name, note=f.note, certified=f.certified
                    )
                )
            row["written"] = path
            text += f"  -> {path}"
        rows.append(row)
        lines.append(text)
    payload = {"count": len(rows), "fixtures": rows}
    return payload, lines, 0


# -- parser -------------------------------------------------------------------


def _common_flags():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    common.add_argument(
        "--budget-vectors",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="cap on vectors visited per enumeration",
    )
    common.add_argument(
        "--budget-subspaces",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="cap on subspaces visited per enumeration",
    )
    return common


def build_parser():
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="nonassoc",
        description="Exact structure computations for finite-dimensional nonassociative algebras.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("info", parents=[common], help="summarize an algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check", parents=[common], help="test a polynomial identity class")
    p.add_argument("file")
    p.add_argument(
        "--identity",
        required=True,
        choices=[k.value for k in IdentityKind],
        help="identity class to test",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("series", parents=[common], help="compute a descending series")
    p.add_argument("file")
    p.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in SeriesKind],
        help="which series to compute",
    )
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("radical", parents=[common], help="compute a radical (finite fields)")
    p.add_argument("file")
    p.add_argument(
        "--which",
        required=True,
        choices=[k.value for k in RadicalKind],
        help="which radical to compute",
    )
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser(
        "frattini", parents=[common], help="Frattini subalgebra and ideal (finite fields)"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_frattini)

    p = sub.add_parser(
        "minimal-ideals", parents=[common], help="minimal ideals (finite fields)"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_minimal_ideals)

    p = sub.add_parser(
        "chief-series", parents=[common], help="a chief series (finite fields)"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_chief_series)

    p = sub.add_parser(
        "decompose",
        parents=[common],
        help="decompose a semisimple bicommutative algebra (finite fields)",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "split",
        parents=[common],
        help="split a Frattini-free algebra over its zero socle (finite fields)",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("verify", parents=[common], help="run structure-theorem checks")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--check", metavar="ID", help="run a single check by id")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "search", parents=[common], help="search structure-constant tables for a class"
    )
    p.add_argument("--field", required=True, help="Q or a prime")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--identity",
        required=True,
        choices=[k.value for k in IdentityKind],
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="enumerate all tables (default)")
    mode.add_argument("--samples", type=int, metavar="N", help="random tables to draw")
    p.add_argument("--seed", type=int, metavar="S", help="seed for random search")
    p.add_argument(
        "--sparsity",
        type=float,
        metavar="P",
        help="max nonzero constants (exhaustive) or zero probability (random)",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fixtures", parents=[common], help="list or emit the builtin corpus")
    p.add_argument("--emit", metavar="DIR", help="write each fixture as DIR/<name>.json")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    output = getattr(ns, "output", "text")
    try:
        payload, lines, code = ns.func(ns)
    except AlgebraFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except (BudgetExceededError, UnsupportedOperationError) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 3
    except TheoremViolationError as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        if e.details:
            print(f"details: {json.dumps(_jsonable(e.details), sort_keys=True)}", file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
