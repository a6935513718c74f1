"""Spans and counters around nonassoc's layers, installed from outside the package.

`Tracer.install()` rebinds each traced public name in every ``nonassoc``
module that bound it (``ideal_closure`` lives in ``algebra`` and
``enumeration``, ``chief_series`` in ``series``, ``verify`` and ``cli``) and
each traced method on its class; `Tracer.uninstall()` puts the originals back.
Spans are kept in memory as parallel arrays and written out once, at the end.
Hot leaf functions get counters only, because a span per call would cost more
than the call.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (metric prefix, module, attribute path) for functions that get a span.
SPANS = (
    ("algebra.Algebra", "algebra", "Algebra.__init__"),
    ("algebra.check_identity", "algebra", "check_identity"),
    ("algebra.ideal_closure", "algebra", "ideal_closure"),
    ("algebra.subalgebra_closure", "algebra", "subalgebra_closure"),
    ("algebra.subspace_product", "algebra", "subspace_product"),
    ("algebra.is_subalgebra", "algebra", "is_subalgebra"),
    ("algebra.is_ideal", "algebra", "is_ideal"),
    ("algebra.fitting_component", "algebra", "fitting_component"),
    ("linalg.span", "linalg", "span"),
    ("linalg.kernel", "linalg", "kernel"),
    ("linalg.subspace_intersect", "linalg", "subspace_intersect"),
    ("linalg.Echelon.subspace", "linalg", "Echelon.subspace"),
    ("series.compute_series", "series", "compute_series"),
    ("series.bracket_terminates", "series", "bracket_terminates"),
    ("series.nilpotency_profile", "series", "nilpotency_profile"),
    ("series.chief_series", "series", "chief_series"),
    ("enumeration.minimal_overideals", "enumeration", "minimal_overideals"),
    ("enumeration.minimal_ideals", "enumeration", "minimal_ideals"),
    ("enumeration.ideals", "enumeration", "ideals"),
    ("enumeration.subalgebras", "enumeration", "subalgebras"),
    ("enumeration.maximal_subalgebras", "enumeration", "maximal_subalgebras"),
    ("enumeration.frattini", "enumeration", "frattini"),
    ("enumeration.radical", "enumeration", "radical"),
    ("structure.decompose_semisimple_bicommutative", "structure", "decompose_semisimple_bicommutative"),
    ("structure.phi_free_split", "structure", "phi_free_split"),
    ("structure.find_complement_subalgebra", "structure", "find_complement_subalgebra"),
    ("verify.verify_all", "verify", "verify_all"),
    ("corpus.builtin_fixtures", "corpus", "builtin_fixtures"),
    ("fileformat.parse_document", "fileformat", "parse_document"),
    ("fileformat.serialize_document", "fileformat", "serialize_document"),
    ("fileformat.document_json", "fileformat", "document_json"),
    ("cli.main", "cli", "main"),
)
# Spans over a generator: they cover the time the generator itself runs.
GENERATOR_SPANS = (("corpus.search", "corpus", "search"),)
# Hot leaves: a call count only.
COUNTERS = (
    ("fields.validate", "fields", "PrimeField.validate"),
    ("fields.validate", "fields", "RationalField.validate"),
    ("algebra.multiply", "algebra", "Algebra.multiply"),
    ("algebra.left_mul_basis", "algebra", "Algebra.left_mul_basis"),
    ("algebra.right_mul_basis", "algebra", "Algebra.right_mul_basis"),
    ("linalg.Echelon.add", "linalg", "Echelon.add"),
    ("linalg.Subspace.reduce", "linalg", "Subspace.reduce"),
)
# Generators whose yielded items are counted.
YIELD_COUNTERS = (
    ("enumeration.iter_subspaces", "enumeration", "iter_subspaces"),
    ("enumeration.iter_projective_vectors", "enumeration", "iter_projective_vectors"),
)


def _resolve(module, path):
    owner = sys.modules["nonassoc." + module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory spans (name, start, end, parent span, request id) and counters."""

    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.requests = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.active = array("d")  # time on the stack; below end - start only for generators
        self.stack = []
        self.counts = {}
        self.results = {}  # per span name: sum of a size taken from the return value
        self.ingredients = [0, 0]  # Analyzer ingredient requests, of which cache hits
        self.request = -1
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        now = time.perf_counter()
        self.starts.append(now)
        self.ends.append(now)
        self.active.append(0.0)
        return idx

    def span(self, name, fn, size=None):
        stack, ends, active, starts = self.stack, self.ends, self.active, self.starts
        clock = time.perf_counter
        results = self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                now = clock()
                ends[idx] = now
                active[idx] = now - starts[idx]
            if size is not None:
                results[name] = results.get(name, 0) + size(out)
            return out

        return wrapper

    def generator_span(self, name, fn):
        stack, ends, active = self.stack, self.ends, self.active
        clock = time.perf_counter
        counts = self.counts
        yielded = name + ".yielded"
        counts.setdefault(yielded, 0)

        def resume(idx, inner):
            try:
                while True:
                    stack.append(idx)
                    began = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        now = clock()
                        active[idx] += now - began
                        ends[idx] = now
                    counts[yielded] += 1
                    yield item
            finally:
                inner.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            stack.append(idx)
            began = clock()
            try:
                inner = fn(*args, **kwargs)
            finally:
                stack.pop()
                now = clock()
                active[idx] += now - began
                ends[idx] = now
            return resume(idx, iter(inner))

        return wrapper

    def counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yield_counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        """Rebind every name bound to `original` in a nonassoc module."""
        bound = False
        for modname, module in list(sys.modules.items()):
            if modname != "nonassoc" and not modname.startswith("nonassoc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
                    bound = True
        if not bound:
            raise RuntimeError(f"{original.__qualname__} is bound in no nonassoc module")

    def _wrap(self, module, path, make):
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr]
        replacement = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
        else:
            self._rebind_everywhere(original, replacement)

    def install(self):
        import nonassoc.cli  # noqa: F401  (bind every module before scanning)

        # `nonassoc.verify` the attribute is the function; the module is here
        enumeration = sys.modules["nonassoc.enumeration"]
        verify = sys.modules["nonassoc.verify"]

        for prefix, module, path in SPANS:
            size = None
            if prefix in ("enumeration.minimal_overideals", "enumeration.subalgebras"):
                size = len
            self._wrap(module, path, lambda f, n=prefix, s=size: self.span(n, f, s))
        for prefix, module, path in GENERATOR_SPANS:
            self._wrap(module, path, lambda f, n=prefix: self.generator_span(n, f))
        for prefix, module, path in COUNTERS:
            self._wrap(module, path, lambda f, n=prefix: self.counter(n + ".calls", f))
        for prefix, module, path in YIELD_COUNTERS:
            self._wrap(module, path, lambda f, n=prefix: self.yield_counter(n + ".yielded", f))

        # The radical's qualifying closures: counted from its private predicate.
        qualifies = enumeration._qualifies
        counts = self.counts
        counts["enumeration.radical.qualifying"] = 0

        def counted_qualifies(*args):
            ok = qualifies(*args)
            counts["enumeration.radical.qualifying"] += bool(ok)
            return ok

        self._patches.append((enumeration, "_qualifies", qualifies))
        enumeration._qualifies = counted_qualifies

        # One span per catalogued check, through the dispatch table.
        table = verify._CHECK_FUNCS
        for check, fn in list(table.items()):
            self._patches.append((table, check, fn))
            table[check] = self.span("verify.check." + check.value, fn)

        # Analyzer ingredients: a request is a hit when its key is cached.
        ingredient = verify.Analyzer._ingredient
        tally = self.ingredients

        def counted_ingredient(analyzer, cache_key, *args):
            base = analyzer._mirror_of if analyzer._mirror_of is not None else analyzer
            tally[0] += 1
            tally[1] += cache_key in base._shared_cache
            return ingredient(analyzer, cache_key, *args)

        self._patches.append((verify.Analyzer, "_ingredient", ingredient))
        verify.Analyzer._ingredient = counted_ingredient

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total active seconds, self seconds)."""
        child = [0.0] * len(self.names)
        parents, active = self.parents, self.active
        for idx, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += active[idx]
        out = {}
        for idx, name in enumerate(self.names):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + active[idx], own + active[idx] - child[idx])
        return out

    def child_count(self, child, parent):
        """How many `child` spans sit directly under a `parent` span."""
        names, parents = self.names, self.parents
        return sum(
            1
            for idx, name in enumerate(names)
            if name == child and parents[idx] >= 0 and names[parents[idx]] == parent
        )

    def write(self, path):
        """Write every span as a tab-separated line, parents before children."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\trequest\tname\tstart_s\tend_s\tactive_s\n")
            origin = self.starts[0] if self.starts else 0.0
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{idx}\t{self.parents[idx]}\t{self.requests[idx]}\t{name}\t"
                    f"{self.starts[idx] - origin:.9f}\t{self.ends[idx] - origin:.9f}\t"
                    f"{self.active[idx]:.9f}\n"
                )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics, by name, as (value, unit)."""
    from nonassoc.verify import CheckId

    spans = tracer.self_times()
    counts = tracer.counts
    out = {}

    def span_metrics(prefix, calls=True, self_s=True):
        n, _, own = spans.get(prefix, (0, 0.0, 0.0))
        if calls:
            out[prefix + ".calls"] = (n, "count")
        if self_s:
            out[prefix + ".self_s"] = (own, "s")

    out["fields.validate.calls"] = (counts["fields.validate.calls"], "count")
    for prefix, _, _ in SPANS:
        if prefix == "verify.verify_all":
            span_metrics(prefix, calls=False)
        elif prefix == "corpus.builtin_fixtures" or not prefix.startswith(("corpus.", "cli.")):
            span_metrics(prefix)
    for name in ("algebra.multiply", "algebra.left_mul_basis", "algebra.right_mul_basis",
                 "linalg.Echelon.add", "linalg.Subspace.reduce"):
        out[name + ".calls"] = (counts[name + ".calls"], "count")
    for name in ("enumeration.iter_subspaces", "enumeration.iter_projective_vectors"):
        out[name + ".yielded"] = (counts[name + ".yielded"], "count")

    res = tracer.results
    out["enumeration.minimal_overideals.useful_ratio"] = (
        _ratio(res.get("enumeration.minimal_overideals", 0),
               tracer.child_count("algebra.ideal_closure", "enumeration.minimal_overideals")),
        "ratio",
    )
    out["enumeration.subalgebras.useful_ratio"] = (
        _ratio(res.get("enumeration.subalgebras", 0),
               tracer.child_count("algebra.is_subalgebra", "enumeration.subalgebras")),
        "ratio",
    )
    out["enumeration.radical.useful_ratio"] = (
        _ratio(counts["enumeration.radical.qualifying"],
               tracer.child_count("algebra.ideal_closure", "enumeration.radical")),
        "ratio",
    )
    for check in CheckId:
        name = "verify.check." + check.value
        out[name + ".s"] = (spans.get(name, (0, 0.0, 0.0))[1], "s")
    out["verify.ingredient_hit_ratio"] = (_ratio(tracer.ingredients[1], tracer.ingredients[0]), "ratio")

    out["corpus.search.self_s"] = (spans.get("corpus.search", (0, 0.0, 0.0))[2], "s")
    out["corpus.search.hit_ratio"] = (
        _ratio(counts.get("corpus.search.yielded", 0),
               tracer.child_count("algebra.Algebra", "corpus.search")),
        "ratio",
    )
    out["cli.main.self_s"] = (spans.get("cli.main", (0, 0.0, 0.0))[2], "s")
    return out
