"""Reading and writing algebras as JSON structure-constant files.

A file is a UTF-8 JSON object:

    {"field": "Q" | {"prime": p},
     "dim": n,
     "basis": ["x", "y", ...],          # optional, n distinct names
     "products": [{"i": 0, "j": 1, "terms": [{"k": 0, "c": "1"}]}, ...]}

Indices are 0-based; absent (i, j) pairs mean the product of those basis
vectors is zero; coefficient strings use the field's own rendering ("2",
"-3/2"). Serialization is canonical: keys sorted, products sorted by (i, j),
terms sorted by k, zero terms omitted, so equal algebras give byte-identical
files.

Three optional keys extend the format for fixture files: "name" and "note"
(free-form provenance strings) and "certified", a dictionary of trusted facts
used by the verifier when enumeration is unavailable (mainly over Q).
Subspaces in the certified block are written as lists of basis rows, each row
a list of coefficient strings.
"""

import json

from .algebra import Algebra, IdentityKind
from .errors import AlgebraFileError, UsageError
from .fields import GF, QQ
from .linalg import span
from .analyzer import CERTIFIED_FACTS, CERTIFIED_KEYS, _coerce_certified

_TOP_KEYS = {"field", "dim", "basis", "products", "name", "note", "certified"}


class AlgebraDocument:
    """A parsed file: the algebra plus optional fixture metadata."""

    __slots__ = ("algebra", "name", "note", "certified")

    def __init__(self, algebra, name=None, note=None, certified=None):
        self.algebra = algebra
        self.name = name
        self.note = note
        self.certified = certified


def _fail(message, location=None):
    raise AlgebraFileError(message, location)


def _require_type(value, types, what, location):
    if not isinstance(value, types):
        _fail(what, location)
    return value


def _parse_int(value, what, location):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{what} must be an integer", location)
    return value


def _parse_field(value, location):
    if value == "Q":
        return QQ
    if isinstance(value, dict):
        extra = set(value) - {"prime"}
        if extra:
            _fail(f"unknown field keys: {sorted(extra)}", location)
        if "prime" not in value:
            _fail('finite field needs a "prime" key', location)
        p = _parse_int(value["prime"], "prime", f"{location}.prime")
        try:
            return GF(p)
        except UsageError as e:
            _fail(str(e), f"{location}.prime")
    _fail('field must be "Q" or {"prime": p}', location)


def _parse_scalar(field, value, location):
    if not isinstance(value, str):
        _fail("coefficient must be a string", location)
    try:
        return field.parse(value)
    except UsageError as e:
        _fail(str(e), location)


def _parse_index(value, dim, what, location):
    idx = _parse_int(value, what, location)
    if not 0 <= idx < dim:
        _fail(f"{what} {idx} out of range [0, {dim})", location)
    return idx


def _parse_products(field, dim, value, location):
    if not isinstance(value, list):
        _fail("products must be an array", location)
    zero = field.zero
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for idx, entry in enumerate(value):
        here = f"{location}[{idx}]"
        if not isinstance(entry, dict):
            _fail("product entry must be an object", here)
        extra = set(entry) - {"i", "j", "terms"}
        if extra:
            _fail(f"unknown product keys: {sorted(extra)}", here)
        for need in ("i", "j", "terms"):
            if need not in entry:
                _fail(f'product entry is missing "{need}"', here)
        i = _parse_index(entry["i"], dim, "index i", f"{here}.i")
        j = _parse_index(entry["j"], dim, "index j", f"{here}.j")
        if (i, j) in seen:
            _fail(f"duplicate product entry for pair ({i}, {j})", here)
        seen.add((i, j))
        terms = entry["terms"]
        if not isinstance(terms, list):
            _fail("terms must be an array", f"{here}.terms")
        seen_k = set()
        for t_idx, term in enumerate(terms):
            spot = f"{here}.terms[{t_idx}]"
            if not isinstance(term, dict):
                _fail("term must be an object", spot)
            extra = set(term) - {"k", "c"}
            if extra:
                _fail(f"unknown term keys: {sorted(extra)}", spot)
            for need in ("k", "c"):
                if need not in term:
                    _fail(f'term is missing "{need}"', spot)
            k = _parse_index(term["k"], dim, "index k", f"{spot}.k")
            if k in seen_k:
                _fail(f"duplicate term for basis index {k} in product ({i}, {j})", spot)
            seen_k.add(k)
            table[i][j][k] = _parse_scalar(field, term["c"], f"{spot}.c")
    return table


def _parse_subspace(field, dim, value, location):
    if not isinstance(value, list):
        _fail("subspace must be an array of basis rows", location)
    rows = []
    for r_idx, row in enumerate(value):
        here = f"{location}[{r_idx}]"
        if not isinstance(row, list) or len(row) != dim:
            _fail(f"basis row must be an array of {dim} coefficients", here)
        rows.append(
            tuple(_parse_scalar(field, x, f"{here}[{c}]") for c, x in enumerate(row))
        )
    return span(field, dim, rows)


def _parse_subspace_list(field, dim, value, location):
    if not isinstance(value, list):
        _fail("expected an array of subspaces", location)
    return [
        _parse_subspace(field, dim, sub, f"{location}[{idx}]")
        for idx, sub in enumerate(value)
    ]


def _parse_certified(field, dim, value, location):
    if not isinstance(value, dict):
        _fail("certified block must be an object", location)
    out = {}
    for key, entry in value.items():
        here = f"{location}.{key}"
        if key == "identities":
            if not isinstance(entry, dict):
                _fail("identities must map class names to booleans", here)
            ids = {}
            for kind, flag in entry.items():
                try:
                    kind = IdentityKind(kind).value
                except ValueError:
                    _fail(f"unknown identity class {kind!r}", here)
                if not isinstance(flag, bool):
                    _fail(f"identity claim for {kind!r} must be a boolean", here)
                ids[kind] = flag
            out[key] = ids
        elif key not in CERTIFIED_FACTS:
            _fail(f"unknown certified key {key!r}", location)
        elif CERTIFIED_FACTS[key].single:
            out[key] = _parse_subspace(field, dim, entry, here)
        else:
            out[key] = _parse_subspace_list(field, dim, entry, here)
    return out


def parse_document(data):
    """Parse bytes or text into an AlgebraDocument (algebra plus metadata)."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as e:
            _fail(f"file is not UTF-8: {e}")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        _fail(f"invalid JSON: {e}")
    if not isinstance(obj, dict):
        _fail("top-level value must be an object")
    extra = set(obj) - _TOP_KEYS
    if extra:
        _fail(f"unknown keys: {sorted(extra)}")
    for need in ("field", "dim", "products"):
        if need not in obj:
            _fail(f'missing required key "{need}"')
    field = _parse_field(obj["field"], "field")
    dim = _parse_int(obj["dim"], "dim", "dim")
    if dim < 1:
        _fail("dim must be at least 1", "dim")
    labels = None
    if "basis" in obj:
        basis = obj["basis"]
        if (
            not isinstance(basis, list)
            or len(basis) != dim
            or not all(isinstance(x, str) and x for x in basis)
        ):
            _fail(f"basis must be an array of {dim} nonempty names", "basis")
        if len(set(basis)) != dim:
            _fail("basis names must be distinct", "basis")
        labels = tuple(basis)
    table = _parse_products(field, dim, obj["products"], "products")
    algebra = Algebra(field, dim, table, labels)
    name = note = None
    if "name" in obj:
        name = _require_type(obj["name"], str, "name must be a string", "name")
    if "note" in obj:
        note = _require_type(obj["note"], str, "note must be a string", "note")
    certified = None
    if "certified" in obj:
        certified = _parse_certified(field, dim, obj["certified"], "certified")
    return AlgebraDocument(algebra, name, note, certified)


def parse_algebra(data):
    """Parse bytes or text into an Algebra, ignoring fixture metadata."""
    return parse_document(data).algebra


def _field_json(field):
    if field.is_finite:
        return {"prime": field.order}
    return "Q"


def _subspace_json(sub):
    field = sub.field
    return [[field.render(x) for x in row] for row in sub.basis]


def _certified_json(field, dim, certified):
    out = {}
    for key in certified:
        if key not in CERTIFIED_KEYS:
            raise UsageError(f"unknown certified key: {key!r}")
    for key, value in certified.items():
        if key == "identities":
            out[key] = {IdentityKind(k).value: bool(v) for k, v in value.items()}
        elif CERTIFIED_FACTS[key].single:
            out[key] = _subspace_json(_coerce_certified(field, dim, key, value))
        else:
            out[key] = [_subspace_json(sub) for sub in _coerce_certified(field, dim, key, value)]
    return out


def document_json(algebra, name=None, note=None, certified=None):
    """The JSON object for an algebra, as nested Python data."""
    products = []
    zero = algebra.field.zero
    render = algebra.field.render
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            vec = algebra.table[i][j]
            terms = [
                {"k": k, "c": render(x)} for k, x in enumerate(vec) if x != zero
            ]
            if terms:
                products.append({"i": i, "j": j, "terms": terms})
    obj = {
        "field": _field_json(algebra.field),
        "dim": algebra.dim,
        "products": products,
    }
    if algebra.labels is not None:
        obj["basis"] = list(algebra.labels)
    if name is not None:
        obj["name"] = name
    if note is not None:
        obj["note"] = note
    if certified is not None:
        obj["certified"] = _certified_json(algebra.field, algebra.dim, certified)
    return obj


def serialize_document(algebra, name=None, note=None, certified=None):
    """Serialize an algebra with optional fixture metadata to canonical bytes."""
    obj = document_json(algebra, name, note, certified)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def serialize_algebra(algebra):
    """Serialize an algebra to canonical bytes; parse_algebra inverts this."""
    return serialize_document(algebra)
