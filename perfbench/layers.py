"""How each item kind calls the library, what work it counts, how it is checked.

A kind names one public function of one layer (``weights``, ``cube``,
``bijection``, ``recursion``, ``oracle``, ``cli``). Its ``group`` is the
prefix of its per-layer metrics. Counts are computed from the item's
inputs and outputs only, so they repeat exactly whenever the inputs do.
"""

from __future__ import annotations

import contextlib
import io
import os
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

import references as ref


class Kind(NamedTuple):
    span: str  # "<layer>.<function>", the name of the layer span
    group: str  # prefix of the per-layer metrics
    function: Callable  # cubeseg package -> the library function
    prepare: Callable  # (cubeseg, raw args, work dir) -> call args
    counts: Callable  # (raw args, result) -> {counter: int}
    check: Callable  # (raw args, result, Context) -> bool
    # (library function, call args, outputs of the pass so far) -> result
    invoke: Callable = lambda fn, args, out: fn(*args)


class Context(NamedTuple):
    """What checks need beyond one item."""

    cs: object  # the cubeseg package, for the naive factor counts
    work: str  # directory of the vertex files
    emitted: dict  # --emit-set path (as in the raw argv) -> segment size


def layer_of(kind: str) -> str:
    return kind.split(".", 1)[0]


# --- set-valued arguments ----------------------------------------------------
# Raw set arguments are (n, bits, q, origin). The origin is benchmark
# metadata for the check and never reaches the program:
#   ("segment", k)            initial segment {0..k-1}
#   ("product", a, b, half)   A x B of two sets of the half-dimension cube
#   ("random",)               seeded random members

def _expected_count(args, ctx) -> int:
    n, bits, q, origin = args
    if origin[0] == "segment":
        return ref.prefix_sum(origin[1], q)
    if origin[0] == "product":
        _, a, b, half = origin
        return sum(
            _naive_factor(ctx.cs, half, a, i) * _naive_factor(ctx.cs, half, b, q - i)
            for i in range(max(0, q - half), min(q, half) + 1)
        )
    return ref.subcube_count(n, bits, q)


@lru_cache(maxsize=None)
def _naive_factor(cs, half, bits, q) -> int:
    return cs.count_subcubes_naive(cs.VertexSet.from_bits(half, bits), q)


@lru_cache(maxsize=None)
def _file_text(bits: int) -> str:
    """The decimal vertex-file text for the set with indicator ``bits``."""
    return "".join(f"{v}\n" for v in range(bits.bit_length()) if bits >> v & 1)


def _check_saved(args, result, ctx) -> bool:
    with open(os.path.join(ctx.work, args[2]), encoding="utf-8") as fh:
        return result is None and fh.read() == _file_text(args[1])


def _check_witness(args, w, ctx) -> bool:
    ilo, ihi, jlo, jhi = args
    if w is None:
        return not ref.bijection_exists(*args)
    return (
        (w.source.lo, w.source.hi, w.target.lo, w.target.hi) == args
        and w.strict_required == (ihi < jlo)
        and ref.is_special(w.map, *args)
    )


def _check_inequality(args, r, ctx) -> bool:
    ilo, ihi, jlo, jhi, q = args
    weights = [ref.popcount(i) for i in range(ilo, ihi + 1)]
    lhs = sum(comb(w, q) + comb(w, q - 1) for w in weights)
    rhs = sum(comb(ref.popcount(j), q) for j in range(jlo, jhi + 1))
    return (r.lhs, r.rhs, r.holds) == (lhs, rhs, True)


def _check_table(args, t, ctx) -> bool:
    qmax, kmax = args
    F = ref.closed_form(qmax, kmax)
    if any(t.values[q][1:] != F[q][1:] for q in range(qmax + 1)):
        return False
    return all(
        ref.maximizers_ok(q, k, t.maximizer_sets[(q, k)], F)
        for q in range(1, qmax + 1)
        for k in range(2, kmax + 1)
    )


def _check_three_term(args, rep, ctx) -> bool:
    _, _, q, r, _ = args
    heavy_light = rep.mq_heavy + rep.mq_light
    return (
        rep.r == r
        and heavy_light <= rep.mq_total <= rep.bound
        and rep.bound == heavy_light + rep.mq1_light
        and rep.exact == (rep.mq_total == rep.bound)
    )


def _run_cli(run, argv):
    """cli.run(argv) in-process; returns (exit code, captured stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stdout.getvalue()


def _cli_argv(cs, argv, work):
    return ([a.replace("{work}", work) for a in argv],)


def _set_args(cs, args, work):
    n, bits, *rest, _origin = args
    return (cs.VertexSet.from_bits(n, bits), *rest)


KINDS = {
    "weights.prefix_hq": Kind(
        "weights.prefix_hq", "weights.prefix_hq",
        lambda cs: cs.prefix_hq,
        lambda cs, a, w: a,
        lambda a, r: {"calls": 1, "k_sum": a[0]},
        lambda a, r, ctx: r == ref.prefix_sum(*a),
    ),
    "cube.bitparallel": Kind(
        "cube.count_subcubes_bitparallel", "cube.bitparallel",
        lambda cs: cs.count_subcubes_bitparallel,
        _set_args,
        lambda a, r: {
            "calls": 1,
            "free_sets": comb(a[0], a[2]),
            "computed_bytes": comb(a[0], a[2]) * a[2] << a[0] >> 3,
        },
        lambda a, r, ctx: r == _expected_count(a, ctx),
    ),
    "cube.naive": Kind(
        "cube.count_subcubes_naive", "cube.naive",
        lambda cs: cs.count_subcubes_naive,
        _set_args,
        lambda a, r: {"calls": 1, "candidates": comb(a[0], a[2]) << (a[0] - a[2])},
        lambda a, r, ctx: r == _expected_count(a, ctx),
    ),
    "cube.three_term": Kind(
        "cube.three_term_report", "cube.three_term",
        lambda cs: cs.three_term_report,
        _set_args,
        lambda a, r: {"calls": 1},
        _check_three_term,
    ),
    "cube.save": Kind(
        "cube.save_vertex_set", "cube.io",
        lambda cs: cs.save_vertex_set,
        lambda cs, a, w: (cs.VertexSet.from_bits(a[0], a[1]), os.path.join(w, a[2])),
        lambda a, r: {"bytes": len(_file_text(a[1]))},
        _check_saved,
    ),
    "cube.load": Kind(
        "cube.load_vertex_set", "cube.io",
        lambda cs: cs.load_vertex_set,
        lambda cs, a, w: (os.path.join(w, a[2]), a[0]),
        lambda a, r: {"bytes": len(_file_text(a[1]))},
        lambda a, r, ctx: (r.dim, r.bits) == (a[0], a[1]),
    ),
    "bijection.find": Kind(
        "bijection.find_special_bijection", "bijection.find",
        lambda cs: cs.find_special_bijection,
        lambda cs, a, w: (cs.Interval(a[0], a[1]), cs.Interval(a[2], a[3])),
        lambda a, r: {"calls": 1, "pairs": a[1] - a[0] + 1, "found": r is not None},
        _check_witness,
    ),
    "bijection.verify": Kind(
        "bijection.verify_special", "bijection.verify",
        lambda cs: cs.verify_special,
        lambda cs, a, w: a,
        lambda a, r: {"rejected": r is not True},
        # The witness comes from the find item; it must pass verify_special.
        lambda a, r, ctx: r is True,
        lambda fn, args, out: fn(out[args[0]]),
    ),
    "bijection.inequality": Kind(
        "bijection.check_shifted_hq_inequality", "bijection.inequality",
        lambda cs: cs.check_shifted_hq_inequality,
        lambda cs, a, w: (cs.Interval(a[0], a[1]), cs.Interval(a[2], a[3]), a[4]),
        lambda a, r: {"calls": 1},
        _check_inequality,
    ),
    "recursion.build_table": Kind(
        "recursion.build_table", "recursion.build_table",
        lambda cs: cs.build_table,
        lambda cs, a, w: a,
        lambda a, r: {
            "calls": 1,
            "candidates": a[0] * sum(k // 2 for k in range(2, a[1] + 1)),
        },
        _check_table,
    ),
    "recursion.hypercubic": Kind(
        "recursion.hypercubic_partitions", "recursion.hypercubic",
        lambda cs: cs.hypercubic_partitions,
        lambda cs, a, w: a,
        lambda a, r: {"calls": 1, "k_sum": a[0]},
        lambda a, r, ctx: r == ref.hypercubic(a[0]),
    ),
    "recursion.counterexample": Kind(
        "recursion.find_onlyif_counterexamples", "recursion.counterexample",
        lambda cs: cs.find_onlyif_counterexamples,
        lambda cs, a, w: a,
        lambda a, r: {"records": len(r)},
        lambda a, r, ctx: [(c.q, c.k, c.non_hypercubic_maximizers) for c in r]
        == ref.counterexamples(*a),
    ),
    "oracle.brute_force": Kind(
        "oracle.brute_force_mq", "oracle.brute_force",
        lambda cs: cs.brute_force_mq,
        lambda cs, a, w: a,
        lambda a, r: {"calls": 1, "subsets_scanned": r.total_subsets_scanned},
        lambda a, r, ctx: (r.max_count, r.total_subsets_scanned, r.matches_formula)
        == (ref.prefix_sum(a[1], a[2]), comb(1 << a[0], a[1]), True),
    ),
    "oracle.is_optimal": Kind(
        "oracle.is_optimal_set", "oracle.is_optimal",
        lambda cs: cs.is_optimal_set,
        _set_args,
        lambda a, r: {"calls": 1},
        # Every set asked about is an initial segment, which is optimal.
        lambda a, r, ctx: r is True,
    ),
    "cli.run": Kind(
        "cli.run", "cli.run",
        lambda cs: cs.cli.run,
        _cli_argv,
        lambda a, r: {"calls": 1, "bytes_out": len(r[1].encode()), "nonzero_exit": r[0] != 0},
        lambda a, r, ctx: ref.check_cli(a, r, ctx.emitted),
        lambda fn, args, out: _run_cli(fn, args[0]),
    ),
}
