"""Per-layer tracing installed from outside the package.

A traced job runs in its own process: ``python bench/tracing.py LOG link
ARGS`` runs ``quadfrob.cli.main(ARGS)`` and ``python bench/tracing.py LOG
algebra ARGS`` runs one algebra job from ``algebra_job.py``, each with wrappers
around the public functions of ``linkhom``, ``omodule``, ``intlin``,
``frobenius`` and ``ideals``.  Every binding of a wrapped function is
patched, including the ``from .intlin import ...`` copies held by other
modules.  ``ring`` is not wrapped: wrapping its arithmetic would multiply
the run time, so its cost shows as self time of its callers.

Spans live in a file-backed shared memory map (LOG).  A span's record is
written when it opens, with an open end, and completed when it closes, so
a job killed at its budget still leaves every finished span, and its open
spans can be marked as cut at the kill.  The benchmark reads the map after
the job ends.  Size attributes (cells, bits, ranks) are computed after a
span's end is taken, so their cost shows as self time of the caller.
"""

from __future__ import annotations

import functools
import math
import mmap
import struct
import sys
import time

# Span names; the index is the name id stored in a record.
NAMES = (
    "cli.main",
    "job.algebra",
    "linkhom.resolve",
    "linkhom.build_complex",
    "linkhom.check_d_squared",
    "linkhom.homology_integral",
    "linkhom.homology_over_K",
    "linkhom.simplify",
    "omodule.tensor_power",
    "omodule.tensor_over_O",
    "omodule.homology_pair",
    "omodule.kernel_m_analysis",
    "intlin.mat_mul",
    "intlin.kron",
    "intlin.perm_matrix",
    "intlin.rank_rat",
    "intlin.smith_normal_form",
    "intlin.hnf_rows",
    "intlin.kernel_basis",
    "frobenius.analyze",
    "frobenius.search_solutions",
    "frobenius.twist",
    "frobenius.closed_surface_invariant",
    "ideals.solve_partition_of_z",
    "ideals.is_principal",
    "ideals.certify_order_two",
)
NAME_ID = {n: i for i, n in enumerate(NAMES)}
# Calls counted without a span: too frequent and too short to time.
COUNTERS = ("ideals.contains",)

# header: record count, then one int64 per counter
HEADER = struct.Struct("<q" + "q" * len(COUNTERS))
# record: name id, parent record (-1 for a root), start, end, three attributes
RECORD = struct.Struct("<iiddddd")
CLOSING = struct.Struct("<dddd")  # end and the attributes, written on close
CLOSING_OFFSET = struct.calcsize("<iid")
NAN = float("nan")
INITIAL_RECORDS = 4096


class SpanLog:
    """Writer side, used inside the traced process."""

    def __init__(self, path):
        self._fh = open(path, "w+b")
        self._fh.truncate(HEADER.size + RECORD.size * INITIAL_RECORDS)
        self._map = mmap.mmap(self._fh.fileno(), 0)
        self._capacity = INITIAL_RECORDS
        self._count = 0
        self._stack = [-1]
        self.counters = [0] * len(COUNTERS)

    def open(self, name_id):
        idx = self._count
        if idx == self._capacity:
            self._capacity *= 2
            self._map.resize(HEADER.size + RECORD.size * self._capacity)
        RECORD.pack_into(self._map, HEADER.size + RECORD.size * idx,
                         name_id, self._stack[-1], time.monotonic(), NAN, NAN, NAN, NAN)
        self._count = idx + 1
        struct.pack_into("<q", self._map, 0, self._count)
        self._stack.append(idx)
        return idx

    def close(self, idx, end, a=NAN, b=NAN, c=NAN):
        CLOSING.pack_into(self._map, HEADER.size + RECORD.size * idx + CLOSING_OFFSET, end, a, b, c)
        self._stack.pop()

    def finish(self):
        HEADER.pack_into(self._map, 0, self._count, *self.counters)
        self._map.flush()
        self._map.close()
        self._fh.close()


def read_log(path, kill_time=None):
    """Records of a finished or killed job as dicts.  A record with no end
    was open when the job was killed: it ends at ``kill_time`` and is marked
    ``cut``."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = HEADER.unpack_from(data, 0)
    count = head[0]
    counters = dict(zip(COUNTERS, head[1:]))
    spans = []
    for idx in range(count):
        name_id, parent, start, end, a, b, c = RECORD.unpack_from(data, HEADER.size + RECORD.size * idx)
        cut = math.isnan(end)
        if cut:
            end = kill_time if kill_time is not None else start
        spans.append({
            "name": NAMES[name_id], "parent": parent, "start": start, "end": end, "cut": cut,
            "attrs": [x for x in (a, b, c) if not math.isnan(x)],
        })
    return spans, counters


# ---------------------------------------------------------------------------
# Wrappers


def _bits(rows):
    return max((abs(e).bit_length() for row in rows for e in row), default=0)


def _cells(a):
    return len(a) * (len(a[0]) if a else 0)


def _attrs_mat_mul(args, out):
    a, b = args[0], args[1]
    return (len(a) * (len(b) if b else 0) * (len(b[0]) if b else 0),)


def _attrs_perm_matrix(args, out):
    return (len(out) ** 2,)


def _attrs_rank_rat(args, out):
    return (_cells(args[0]),)


def _attrs_smith(args, out):
    a = args[0]
    diag, u, v, uinv = out
    dim = max(len(a), len(a[0]) if a else 0)
    return (dim, _bits(a), max(_bits([diag]), _bits(u), _bits(v)))


def _attrs_tensor_power(args, out):
    return (len(out.proj[0]) if out.proj else 0,)


def _attrs_resolve(args, out):
    return (len(out.circles), max(len(c) for c in out.circles.values()))


def _attrs_build_complex(args, out):
    nnz = sum(1 for d in out.diffs for row in d for e in row if e)
    return (sum(out.ranks), nnz, sum(_cells(d) for d in out.diffs))


def _attrs_simplify(args, out):
    return (sum(out.ranks),)


def _attrs_analyze(args, out):
    return (1.0 if out[0] is not None else 0.0,)


ATTRS = {
    "linkhom.resolve": _attrs_resolve,
    "linkhom.build_complex": _attrs_build_complex,
    "linkhom.simplify": _attrs_simplify,
    "intlin.mat_mul": _attrs_mat_mul,
    "intlin.perm_matrix": _attrs_perm_matrix,
    "intlin.rank_rat": _attrs_rank_rat,
    "intlin.smith_normal_form": _attrs_smith,
    "omodule.tensor_power": _attrs_tensor_power,
    "frobenius.analyze": _attrs_analyze,
}


def _span_wrapper(log, name, fn):
    name_id = NAME_ID[name]
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = log.open(name_id)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            log.close(idx, time.monotonic())
            raise
        end = time.monotonic()
        log.close(idx, end, *(attrs(args, out) if attrs else ()))
        return out

    return wrapper


def _generator_wrapper(log, name, fn):
    """Span over the whole iteration; the attribute is the number yielded.
    Callers must drain the generator before doing other traced work."""
    name_id = NAME_ID[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = log.open(name_id)
        n = 0
        try:
            for item in fn(*args, **kwargs):
                n += 1
                yield item
        finally:
            log.close(idx, time.monotonic(), float(n))

    return wrapper


def _counter_wrapper(log, name, fn):
    slot = COUNTERS.index(name)
    counters = log.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[slot] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(log):
    """Wraps the traced functions and rebinds every module-level copy."""
    from quadfrob import cli, frobenius, ideals, intlin, linkhom, omodule
    import quadfrob

    modules = (quadfrob, cli, linkhom, omodule, intlin, frobenius, ideals)
    functions = {
        linkhom: ("resolve", "build_complex", "homology_integral", "homology_over_K", "simplify"),
        omodule: ("tensor_over_O", "homology_pair"),
        intlin: ("mat_mul", "kron", "perm_matrix", "rank_rat", "smith_normal_form", "hnf_rows",
                 "kernel_basis"),
        frobenius: ("analyze", "search_solutions", "twist"),
        ideals: ("solve_partition_of_z", "certify_order_two"),
    }
    methods = {
        "linkhom.check_d_squared": linkhom.Complex,
        "omodule.tensor_power": omodule.AlgebraLattice,
        "omodule.kernel_m_analysis": omodule.AlgebraLattice,
        "frobenius.closed_surface_invariant": frobenius.FrobeniusAlgebra,
        "ideals.is_principal": ideals.Ideal,
    }
    for mod, attrs in functions.items():
        for attr in attrs:
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            orig = getattr(mod, attr)
            make = _generator_wrapper if attr == "search_solutions" else _span_wrapper
            wrapped = make(log, name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
    for name, cls in methods.items():
        attr = name.rsplit(".", 1)[1]
        setattr(cls, attr, _span_wrapper(log, name, getattr(cls, attr)))
    ideals.Ideal.contains = _counter_wrapper(log, "ideals.contains", ideals.Ideal.contains)


def main(argv):
    log_path, kind, rest = argv[0], argv[1], argv[2:]
    log = SpanLog(log_path)
    install(log)
    if kind == "link":
        from quadfrob import cli

        root = _span_wrapper(log, "cli.main", cli.main)
        code = root(rest)
    elif kind == "algebra":
        import algebra_job

        root = _span_wrapper(log, "job.algebra", algebra_job.main)
        code = root(rest)
    else:
        raise SystemExit(f"unknown traced job kind {kind!r}")
    log.finish()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
