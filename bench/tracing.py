"""In-memory span tracer that instruments rplattice from the outside.

Nothing under src/ is edited. ``instrument`` replaces selected public
functions with wrappers in every rplattice module that holds a reference to
them, so calls made from inside the package (an estimator calling
``eval_potential_batch``, ``iter_sample_chunks`` calling ``substream``) are
recorded as child spans where they actually happen. Random draws are
attributed to ``streams.substream`` through a proxy around the generator it
returns, and ``numpy.linalg.inv/eigh/eigvalsh`` are wrapped to count calls.

Spans are kept in memory as (invocation, id, parent, name, start, end,
counts) records and written out by the caller when the run ends.
"""

import contextlib
import functools
import json
import sys
import time

import numpy as np


def _rows(args, kwargs):
    configs = kwargs["configs"] if "configs" in kwargs else args[1]
    return "rows", np.shape(configs)[0]


# (module, function, counter) wrapped by ``instrument``; the span is named
# "module.function" and the counter, if any, maps the call's arguments to a
# (key, amount) pair recorded on the span.
SPANNED = [
    ("lattice", "build_lattice", None),
    ("gaussian", "free_field_covariance", None),
    ("gaussian", "covariance_factor", None),
    ("gaussian", "check_theta_invariance", None),
    ("gaussian", "check_gaussian_rp", None),
    ("gaussian", "decompose_pq", None),
    ("gaussian", "verify_convolution_identity", None),
    ("gaussian", "sample", None),
    ("density", "eval_potential_batch", _rows),
    ("density", "potential_from_obj", None),
    ("density", "split_check", None),
    ("rp_verify", "gram_mc_direct", None),
    ("rp_verify", "gram_mc_factorized", None),
    ("cli", "resolve_config", None),
    ("cli", "render_report", None),
]
LINALG = ("inv", "eigh", "eigvalsh")


class Span:
    __slots__ = ("invocation", "id", "parent", "name", "start", "end", "counts")

    def __init__(self, invocation, span_id, parent, name):
        self.invocation = invocation
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.counts = {}

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def as_dict(self):
        return {
            "invocation": self.invocation, "id": self.id, "parent": self.parent,
            "name": self.name, "start": self.start, "end": self.end, "counts": self.counts,
        }


class Tracer:
    """Spans of traced invocations; inactive outside ``invocation()``."""

    def __init__(self):
        self.spans = []
        self.linalg = []  # (invocation, routine, matrix dimension)
        self._stack = []
        self._invocation = None

    @property
    def active(self):
        return self._invocation is not None

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._invocation, len(self.spans), parent, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def invocation(self, index):
        """Root span of one traced invocation; wrappers record only inside it."""
        self._invocation = index
        root = self.open("invocation")
        try:
            yield root
        finally:
            self.close(root)
            self._invocation = None

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if counter is not None:
                    span.count(*counter(args, kwargs))

        return traced

    def wrap_chunks(self, fn, name):
        """Generator wrapper: one span per chunk, counting configurations drawn."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            while True:
                span = self.open(name) if self.active else None
                try:
                    item = next(chunks)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        self.close(span)
                if span is not None:
                    span.count("draws", item[1].shape[0])
                yield item

        return traced

    def wrap_substream(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open("streams.substream")
            try:
                return _TracedGenerator(fn(*args, **kwargs), self)
            finally:
                self.close(span)

        return traced

    def wrap_linalg(self, fn, routine):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self.active:
                self.linalg.append((self._invocation, routine, int(np.shape(a)[-1])))
            return fn(a, *args, **kwargs)

        return counted

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class _TracedGenerator:
    """Delegates to a numpy Generator; each draw is a streams.substream span."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, attr):
        method = getattr(self._rng, attr)
        if not callable(method):
            return method

        def draw(*args, **kwargs):
            span = self._tracer.open("streams.substream")
            try:
                out = method(*args, **kwargs)
            finally:
                self._tracer.close(span)
            span.count("draws", np.size(out))
            return out

        return draw


def _rebind(original, replacement):
    """Point every rplattice module attribute bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "rplattice" or mod_name.startswith("rplattice.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer):
    """Install the tracer's wrappers; they record only inside an invocation."""
    import rplattice.gaussian
    import rplattice.streams

    for module_name, fn_name, counter in SPANNED:
        original = getattr(sys.modules[f"rplattice.{module_name}"], fn_name)
        _rebind(original, tracer.wrap(original, f"{module_name}.{fn_name}", counter))
    # Field sampling in the estimators goes through this generator, not sample().
    chunks = rplattice.gaussian.iter_sample_chunks
    _rebind(chunks, tracer.wrap_chunks(chunks, "gaussian.sample"))
    substream = rplattice.streams.substream
    _rebind(substream, tracer.wrap_substream(substream))
    for routine in LINALG:
        setattr(np.linalg, routine, tracer.wrap_linalg(getattr(np.linalg, routine), routine))


def layer_totals(tracer):
    """Per-name totals over all traced invocations.

    Returns (seconds, self_seconds, counts, top_level_seconds). A span adds
    to its name's seconds only when no ancestor has the same name, so a
    sample() call and its chunks are not counted twice. Self time is the
    span's duration minus its child spans, which run one after another.
    """
    by_id = {s.id: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    seconds, self_seconds, counts = {}, {}, {}
    top_level = 0.0
    for s in tracer.spans:
        if s.name == "invocation":
            continue
        duration = s.end - s.start
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "invocation":
            top_level += duration
        ancestor, nested = parent, False
        while ancestor is not None:
            if ancestor.name == s.name:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent)
        if not nested:
            seconds[s.name] = seconds.get(s.name, 0.0) + duration
        kids = sum(c.end - c.start for c in children.get(s.id, []))
        self_seconds[s.name] = self_seconds.get(s.name, 0.0) + duration - kids
        for key, n in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + n
    return seconds, self_seconds, counts, top_level
