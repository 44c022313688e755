"""Command-line frontend.

Subcommands mirror the library: ``fq`` (recursion table rows), ``count``
(subcubes contained in a vertex file), ``optimal`` (prefix-sum optimum and
optional emission of the initial segment), ``oracle`` (exhaustive search),
``bijection`` (special-bijection witness), ``hypercubic`` (partition
sizes), and ``counterexample`` (maximizers that no bit position explains).

Every subcommand builds one report: a json value, csv rows (header first)
and plain rows. One line writer prints a list of rows, one line per row:
csv joins the cells with "," and shows an empty list as nothing, plain
joins them with " " and shows an empty list as "-"; a list cell joins its
items with "|". The three formats carry identical numeric content.
Reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage error, 2 input error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import bijection as bij
from . import cube, oracle, recursion
from .weights import prefix_hq

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on exit code 1
        raise ValueError(message)


@dataclass
class _Report:
    json_obj: object  # or a function that builds it, called only for json
    csv_rows: list  # header first
    plain_rows: list


def _cell(value, empty: str) -> str:
    """A cell that is not a plain int; an empty list shows as empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, set, frozenset)):
        return "|".join(map(str, value)) if value else empty
    return str(value)


def _lines(rows: list, sep: str, empty: str) -> str:
    """One line per row, its cells joined by sep."""
    # Most cells are ints and skip the call; a bool is not `type(v) is int`.
    return "".join([
        sep.join([str(v) if type(v) is int else _cell(v, empty) for v in row]) + "\n"
        for row in rows
    ])


def _table(header: list, rows: list) -> _Report:
    """A header-plus-rows report: json row objects, built only for json,
    and one line per row."""
    lines = [header] + rows
    return _Report(lambda: [dict(zip(header, row)) for row in rows], lines, lines)


def _render(report: _Report, fmt: str) -> str:
    if fmt == "json":
        obj = report.json_obj
        return json.dumps(obj() if callable(obj) else obj, indent=2) + "\n"
    if fmt == "csv":
        return _lines(report.csv_rows, ",", "")
    return _lines(report.plain_rows, " ", "-")


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="cubeseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument(
            "--output",
            choices=("plain", "json", "csv"),
            default="plain",
            help="report format (default: plain)",
        )

    p = sub.add_parser("fq", help="recursion values, maximizers, hypercubic sizes")
    p.set_defaults(handler=_cmd_fq)
    p.add_argument("--q", type=int, required=True, help="subcube dimension (>= 0)")
    p.add_argument("--kmax", type=int, required=True, help="largest set size")
    add_output(p)

    p = sub.add_parser("count", help="count subcubes contained in a vertex file")
    p.set_defaults(handler=_cmd_count)
    p.add_argument("--dim", type=int, required=True, help="cube dimension n")
    p.add_argument("--q", type=int, required=True, help="subcube dimension")
    p.add_argument("--input", required=True, help="vertex file, one vertex per line")
    p.add_argument(
        "--input-format",
        choices=cube._FORMATS,
        default="decimal",
        help="vertex file format (default: decimal)",
    )
    add_output(p)

    p = sub.add_parser("optimal", help="prefix-sum optimum for k vertices")
    p.set_defaults(handler=_cmd_optimal)
    p.add_argument("--dim", type=int, required=True, help="cube dimension n")
    p.add_argument("--q", type=int, required=True, help="subcube dimension")
    p.add_argument("--k", type=int, required=True, help="set size")
    p.add_argument(
        "--emit-set",
        metavar="PATH",
        help="also write the initial segment {0..k-1} as a vertex file",
    )
    p.add_argument(
        "--input-format",
        choices=cube._FORMATS,
        default="decimal",
        help="format of the emitted vertex file (default: decimal)",
    )
    add_output(p)

    p = sub.add_parser("oracle", help="exhaustive maximum over all k-subsets")
    p.set_defaults(handler=_cmd_oracle)
    p.add_argument("--dim", type=int, required=True, help="cube dimension n")
    p.add_argument("--k", type=int, required=True, help="set size")
    p.add_argument("--q", type=int, required=True, help="subcube dimension")
    p.add_argument(
        "--argmax-cap",
        type=int,
        default=oracle.DEFAULT_ARGMAX_CAP,
        help=f"max argmax examples reported (default: {oracle.DEFAULT_ARGMAX_CAP})",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_BUDGET,
        help=f"subset enumeration budget (default: {oracle.DEFAULT_BUDGET})",
    )
    add_output(p)

    p = sub.add_parser("bijection", help="weight-monotone bijection between intervals")
    p.set_defaults(handler=_cmd_bijection)
    p.add_argument("src_lo", type=int, help="source interval lower bound")
    p.add_argument("src_hi", type=int, help="source interval upper bound")
    p.add_argument("dst_lo", type=int, help="target interval lower bound")
    p.add_argument("dst_hi", type=int, help="target interval upper bound")
    add_output(p)

    p = sub.add_parser("hypercubic", help="hypercubic partition sizes of k")
    p.set_defaults(handler=_cmd_hypercubic)
    p.add_argument("--k", type=int, required=True, help="set size (>= 2)")
    add_output(p)

    p = sub.add_parser("counterexample", help="maximizers that are not hypercubic")
    p.set_defaults(handler=_cmd_counterexample)
    p.add_argument("--qmax", type=int, required=True, help="largest q scanned")
    p.add_argument("--kmax", type=int, required=True, help="largest k scanned")
    add_output(p)

    return parser


def _cmd_fq(ns) -> _Report:
    if ns.q < 0:
        raise ValueError(f"--q must be >= 0, got {ns.q}")
    if ns.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {ns.kmax}")
    table = recursion.build_table(ns.q, ns.kmax)
    sets, values = table.maximizer_sets, table.values[ns.q]
    rows = [[ns.q, 1, values[1], [], []]]
    for k in range(2, ns.kmax + 1):
        if ns.q >= 1:  # row 1 is the hypercubic row (recursion module docstring)
            rows.append([ns.q, k, values[k], sets[(ns.q, k)], sets[(1, k)]])
        else:  # no row 1 to read, and one would bring q = 0 under the split bound
            rows.append([0, k, values[k], [], sorted(recursion.hypercubic_partitions(k))])
    return _table(["q", "k", "F", "maximizers", "hypercubic"], rows)


def _cmd_count(ns) -> _Report:
    cube._check_dim(ns.dim)  # before the vertex file is opened
    cube._check_q(ns.q, ns.dim)
    S = cube.load_vertex_set(ns.input, ns.dim, ns.input_format)
    count = cube.count_subcubes_bitparallel(S, ns.q)
    return _Report({"count": count}, [["count"], [count]], [[count]])


def _cmd_optimal(ns) -> _Report:
    cube._check_dim(ns.dim)
    cube._check_q(ns.q, ns.dim)
    cube._check_k(ns.k, ns.dim)
    value = prefix_hq(ns.k, ns.q)
    if ns.emit_set is not None:
        cube.save_vertex_set(cube.initial_segment(ns.k, ns.dim), ns.emit_set, ns.input_format)
    return _Report({"optimal_count": value}, [["optimal_count"], [value]], [[value]])


def _cmd_oracle(ns) -> _Report:
    result = oracle.brute_force_mq(
        ns.dim, ns.k, ns.q, argmax_cap=ns.argmax_cap, budget=ns.budget
    )
    fields = [
        ("n", result.n),
        ("k", result.k),
        ("q", result.q),
        ("max_count", result.max_count),
        ("formula_value", prefix_hq(ns.k, ns.q)),
        ("matches_formula", result.matches_formula),
        ("scanned", result.total_subsets_scanned),
    ]
    argmax = [list(S) for S in result.argmax_examples]
    *head, scanned = fields  # json lists argmax before scanned
    obj = dict([*head, ("argmax", argmax), scanned])
    names, values = map(list, zip(*fields))
    rows = [values + [members] for members in argmax] or [values + [[]]]
    plain = fields + [("argmax", members) for members in argmax]
    return _Report(obj, [names + ["argmax"]] + rows, plain)


def _cmd_bijection(ns) -> _Report:
    source = bij.Interval(ns.src_lo, ns.src_hi)
    target = bij.Interval(ns.dst_lo, ns.dst_hi)
    witness = bij.find_special_bijection(source, target)
    sides = [("source", source), ("target", target)]
    intervals = {name: {"lo": iv.lo, "hi": iv.hi} for name, iv in sides}
    header = ["source_lo", "source_hi", "target_lo", "target_hi"]
    bounds = [end for _, iv in sides for end in (iv.lo, iv.hi)]
    plain = [[name, iv.lo, iv.hi] for name, iv in sides]
    if witness is None:
        obj = {"found": False, **intervals}
        plain.append(["found", False])
        return _Report(obj, [header + ["found"], bounds + [False]], plain)
    strict = witness.strict_required
    obj = {
        **intervals,
        "strict_required": strict,
        "map": [[i, p] for i, p in witness.map],
    }
    rows = [header + ["strict_required", "i", "p"]]
    rows += [bounds + [strict, i, p] for i, p in witness.map]
    plain.append(["strict_required", strict])
    plain += witness.map
    return _Report(obj, rows, plain)


def _cmd_hypercubic(ns) -> _Report:
    fields = [("k", ns.k), ("hypercubic", sorted(recursion.hypercubic_partitions(ns.k)))]
    return _Report(dict(fields), list(zip(*fields)), fields)


def _cmd_counterexample(ns) -> _Report:
    records = recursion.find_onlyif_counterexamples(ns.qmax, ns.kmax)
    rows = [[rec.q, rec.k, rec.non_hypercubic_maximizers] for rec in records]
    return _table(["q", "k", "non_hypercubic_maximizers"], rows)


def run(argv) -> int:
    """Parse argv, dispatch, and emit one report; returns the exit code.

    The report is rendered whole and written to stdout only after the
    command has fully succeeded, so error exits, running out of memory
    included, never leave partial output behind.
    """
    try:
        ns = _build_parser().parse_args(list(argv))
        text = _render(ns.handler(ns), ns.output)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (cube.VertexFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except oracle.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
