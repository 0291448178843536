"""Spans around calls into rlra, recorded from outside the library.

A traced round swaps selected public functions of rlra modules for timing
wrappers (restored afterwards) and wraps the operand and stream objects it
hands to the drivers.  Wrappers pass arguments, results and exceptions
through untouched, so traced factors are bitwise those of an untraced run.
Spans stay in memory; run.py writes them out when the run ends.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import rlra.backend
import rlra.core
import rlra.fixedprec
import rlra.fixedrank
import rlra.kernels
import rlra.rangefinder
import rlra.singlepass

# (module, attribute) pairs whose calls become spans named "<module>.<attr>"
TARGETS = (
    (rlra.backend, "plu_inplace"),
    (rlra.kernels, "plu"),
    (rlra.kernels, "eqr"),
    (rlra.kernels, "pinv_factor"),
    (rlra.kernels, "pinv_apply"),
    (rlra.kernels, "pinv_transpose_apply"),
    (rlra.core, "gaussian"),
    (rlra.core, "apply_row_perm"),
    (rlra.core, "apply_col_perm"),
    (rlra.core, "apply_inv_row_perm"),
    (rlra.core, "invert_perm"),
    (rlra.rangefinder, "power_basis_q"),
    (rlra.rangefinder, "power_basis_lu_l"),
    (rlra.rangefinder, "general_power_basis_v"),
    (rlra.fixedrank, "randsvd"),
    (rlra.fixedrank, "randlu"),
    (rlra.fixedrank, "powerlu"),
    (rlra.fixedrank, "lu_from_projection"),
    (rlra.fixedprec, "adaptive_rank"),
    (rlra.fixedprec, "refine_rank"),
    (rlra.fixedprec, "powerlu_fp"),
    (rlra.singlepass, "single_pass_lu"),
    (rlra.singlepass, "stream_sketch"),
)


# spans that keep the shape of their first argument, for computed flops
SHAPED = ("backend.plu_inplace", "kernels.eqr")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    round: int = -1
    shape: tuple = ()  # first argument's shape (SHAPED spans) or (rows, cols) of a product
    children_s: float = 0.0  # time covered by direct child spans

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    round: int = -1
    counts: dict = field(default_factory=dict)  # (round, name) -> running total
    _stack: list = field(default_factory=list)

    def count(self, name, amount):
        key = (self.round, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, *args, shape=(), **kwargs):
        """Run fn(*args, **kwargs) inside a span; returns fn's own result."""
        idx = len(self.spans)
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                    round=self.round, shape=shape)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].children_s += span.dur

    def wrap(self, name, fn):
        shaped = name in SHAPED

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, shape=args[0].shape if shaped else (), **kwargs)

        return traced

    @contextmanager
    def patched(self):
        """Replace every TARGETS attribute with a wrapper; restore on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in TARGETS]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self.wrap(f"{mod.__name__.split('.')[-1]}.{attr}", fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


class TracedAccessor:
    """An operand whose products and norm reads become accessor spans."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self._tracer = tracer

    @property
    def shape(self):
        return self.inner.shape

    def matmul(self, x):
        return self._tracer.call("accessors.matmul", self.inner.matmul, x, shape=x.shape)

    def rmatmul(self, x):
        return self._tracer.call("accessors.rmatmul", self.inner.rmatmul, x, shape=x.shape)

    def fro_norm(self):
        return self._tracer.call("accessors.fro_norm", self.inner.fro_norm)


class TracedStream:
    """A column stream whose panel reads become singlepass.read spans.

    file_bytes_per_column is what one column costs to read from the file
    behind the stream (0 for an in-memory stream or an .mtx file, which is
    read whole when the stream opens).
    """

    def __init__(self, inner, tracer, file_bytes_per_column=0):
        self.inner = inner
        self._tracer = tracer
        self._col_bytes = file_bytes_per_column

    @property
    def shape(self):
        return self.inner.shape

    @property
    def columns_pulled(self):
        return self.inner.columns_pulled

    def panels(self, *args, **kwargs):
        it = self.inner.panels(*args, **kwargs)
        while True:
            try:
                j0, block = self._tracer.call("singlepass.read", next, it)
            except StopIteration:
                return
            width = block.shape[1]
            self._tracer.count("singlepass.panels", 1)
            self._tracer.count("singlepass.columns", width)
            self._tracer.count("fileio.bytes_read", self._col_bytes * width)
            yield j0, block
