"""Correctness references owned by the benchmark.

Each check compares one item's output with a value computed here, outside
the timed pass, by code that shares nothing with the layer it checks:

* prefix sums use ``math.comb`` and ``bin(i).count("1")``;
* bijection existence uses the per-threshold Hall count (admissible
  targets are nested by weight, so Hall's condition reduces to counting
  sources and targets at each weight threshold); returned witnesses go
  through the library's independent ``verify_special`` in the pass;
* product-set counts use m_q(A x B) = sum_i m_i(A) * m_{q-i}(B), with the
  factor counts from the naive kernel;
* random-set counts use a set-membership enumeration written here;
* the oracle must report ``scanned == C(2^n, k)`` and the prefix-sum
  maximum;
* CLI reports are parsed in each of their three formats and must carry
  the numbers computed here.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

_LOW = 12


def popcount(v: int) -> int:
    return bin(v).count("1")


_LOW_HIST = Counter(popcount(i) for i in range(1 << _LOW))


@lru_cache(maxsize=None)
def weight_hist(k: int) -> Counter:
    """How many of 0..k-1 have each Hamming weight."""
    hist: Counter = Counter()
    blocks = k >> _LOW
    for b in range(blocks):
        w = popcount(b)
        for low, count in _LOW_HIST.items():
            hist[w + low] += count
    for i in range(blocks << _LOW, k):
        hist[popcount(i)] += 1
    return hist


def prefix_sum(k: int, q: int) -> int:
    """Sum of C(h(i), q) over i < k."""
    return sum(count * comb(w, q) for w, count in weight_hist(k).items())


@lru_cache(maxsize=None)
def subcube_count(n: int, bits: int, q: int) -> int:
    """q-subcubes inside the set with indicator ``bits``, by enumeration."""
    members = [v for v in range(1 << n) if bits >> v & 1]
    present = set(members)
    total = 0
    for free in combinations(range(n), q):
        tmask = sum(1 << t for t in free)
        corners = [0]
        for t in free:
            corners += [c | 1 << t for c in corners]
        total += sum(
            1 for v in members
            if not v & tmask and all(v | c in present for c in corners)
        )
    return total


@lru_cache(maxsize=None)
def hypercubic(k: int) -> frozenset:
    """Light-side sizes of hypercubic splits of k, by enumeration."""
    sizes = (sum(1 for i in range(k) if i >> r & 1) for r in range(k.bit_length()))
    return frozenset(c for c in sizes if 1 <= c <= k // 2)


@lru_cache(maxsize=None)
def recursion(qmax: int, kmax: int):
    """F_q(k) and every maximizing k' for q <= qmax, k <= kmax."""
    values = [list(range(kmax + 1))]
    argmax = {}
    for q in range(1, qmax + 1):
        prev, row = values[-1], [0] * (kmax + 1)
        for k in range(2, kmax + 1):
            cands = [row[a] + row[k - a] + prev[a] for a in range(1, k // 2 + 1)]
            row[k] = max(cands)
            argmax[(q, k)] = tuple(a + 1 for a, c in enumerate(cands) if c == row[k])
        values.append(row)
    return values, argmax


# Maximizer sets are checked for completeness up to this k; beyond it,
# every listed k' is checked to attain F_q(k).
COMPLETE_K = 512
COMPLETE_Q = 8


@lru_cache(maxsize=None)
def closed_form(qmax: int, kmax: int) -> list:
    """F_q(k) = sum of C(h(i), q) over i < k, as rows [q][k], k >= 1."""
    rows = []
    for q in range(qmax + 1):
        row, running = [0], 0
        for k in range(1, kmax + 1):
            running += comb(popcount(k - 1), q)
            row.append(running)
        rows.append(row)
    return rows


def maximizers_ok(q: int, k: int, listed, F) -> bool:
    """Whether ``listed`` is exactly the maximizer set of F_q(k).

    ``F`` holds reference values as rows [q][k]; sets at k <= COMPLETE_K
    are compared whole, larger ones only for soundness.
    """
    listed = tuple(sorted(listed))
    if q <= COMPLETE_Q and k <= COMPLETE_K:
        return listed == recursion(COMPLETE_Q, COMPLETE_K)[1][(q, k)]
    return bool(listed) and all(
        1 <= a <= k // 2 and F[q][a] + F[q][k - a] + F[q - 1][a] == F[q][k]
        for a in listed
    )


def counterexamples(qmax: int, kmax: int) -> list:
    """(q, k, non-hypercubic maximizers) records, ordered by (q, k)."""
    argmax = recursion(max(qmax, COMPLETE_Q), max(kmax, COMPLETE_K))[1]
    found = []
    for q in range(1, qmax + 1):
        for k in range(2, kmax + 1):
            extra = sorted(set(argmax[(q, k)]) - hypercubic(k))
            if extra:
                found.append((q, k, tuple(extra)))
    return found


def bijection_exists(ilo: int, ihi: int, jlo: int, jhi: int) -> bool:
    """Hall's condition for a special bijection, one weight at a time."""
    strict = ihi < jlo
    need = Counter(popcount(i) + strict for i in range(ilo, ihi + 1))
    have = Counter(popcount(j) for j in range(jlo, jhi + 1))
    demand = supply = 0
    for t in range(max(need) + max(have), -1, -1):
        demand += need[t]
        supply += have[t]
        if demand > supply:
            return False
    return True


def is_special(pairs, ilo: int, ihi: int, jlo: int, jhi: int) -> bool:
    """Whether ``pairs`` is a weight-monotone bijection [ilo:ihi] -> [jlo:jhi]."""
    strict = ihi < jlo
    return (
        sorted(i for i, _ in pairs) == list(range(ilo, ihi + 1))
        and sorted(p for _, p in pairs) == list(range(jlo, jhi + 1))
        and all(popcount(i) + strict <= popcount(p) for i, p in pairs)
    )


# --- CLI reports -----------------------------------------------------------

def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _ints(cell: str) -> list:
    return [] if cell in ("", "-") else [int(v) for v in cell.split("|")]


def _plain_table(text: str) -> list:
    lines = text.splitlines()
    header = lines[0].split()
    return [dict(zip(header, line.split())) for line in lines[1:]]


def _plain_pairs(text: str) -> dict:
    out: dict = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, []).append(value)
    return out


def _single(argv, text: str, key: str) -> int:
    fmt = _opt(argv, "--output")
    if fmt == "json":
        return json.loads(text)[key]
    if fmt == "csv":
        return int(_csv_rows(text)[0][key])
    return int(text.strip())


def _table_rows(argv, text: str) -> list:
    """Rows of a tabular report as dicts of ints and int lists."""
    fmt = _opt(argv, "--output")
    if fmt == "json":
        return json.loads(text)
    rows = _csv_rows(text) if fmt == "csv" else _plain_table(text)
    return [
        {key: (_ints(v) if key in ("maximizers", "hypercubic", "non_hypercubic_maximizers")
               else int(v)) for key, v in row.items()}
        for row in rows
    ]


def _check_fq(argv, text) -> bool:
    q, kmax = int(_opt(argv, "--q")), int(_opt(argv, "--kmax"))
    rows = _table_rows(argv, text)
    if [r["k"] for r in rows] != list(range(1, kmax + 1)):
        return False
    F = closed_form(q, kmax)
    for r in rows:
        k = r["k"]
        if r["q"] != q or r["F"] != F[q][k]:
            return False
        if sorted(r["hypercubic"]) != (sorted(hypercubic(k)) if k >= 2 else []):
            return False
        if q >= 1 and k >= 2:
            if not maximizers_ok(q, k, r["maximizers"], F):
                return False
        elif r["maximizers"]:
            return False
    return True


def _check_counterexample(argv, text) -> bool:
    qmax, kmax = int(_opt(argv, "--qmax")), int(_opt(argv, "--kmax"))
    rows = _table_rows(argv, text)
    got = [(r["q"], r["k"], tuple(r["non_hypercubic_maximizers"])) for r in rows]
    return got == counterexamples(qmax, kmax)


def _check_bijection(argv, text) -> bool:
    ilo, ihi, jlo, jhi = (int(v) for v in argv[1:5])
    fmt = _opt(argv, "--output")
    if fmt == "json":
        obj = json.loads(text)
        pairs = None if obj.get("found") is False else [tuple(p) for p in obj["map"]]
    elif fmt == "csv":
        rows = _csv_rows(text)
        pairs = None if rows[0].get("found") == "false" else [
            (int(r["i"]), int(r["p"])) for r in rows
        ]
    else:
        lines = text.splitlines()
        pairs = None if "found false" in lines else [
            tuple(int(v) for v in line.split()) for line in lines[3:]
        ]
    if pairs is None:
        return not bijection_exists(ilo, ihi, jlo, jhi)
    return is_special(pairs, ilo, ihi, jlo, jhi)


def _check_oracle(argv, text) -> bool:
    n, k, q = (int(_opt(argv, f)) for f in ("--dim", "--k", "--q"))
    fmt = _opt(argv, "--output")
    if fmt == "json":
        obj = json.loads(text)
        got = (obj["max_count"], obj["formula_value"], obj["scanned"], obj["matches_formula"])
    elif fmt == "csv":
        row = _csv_rows(text)[0]
        got = (int(row["max_count"]), int(row["formula_value"]), int(row["scanned"]),
               row["matches_formula"] == "true")
    else:
        kv = _plain_pairs(text)
        got = (int(kv["max_count"][0]), int(kv["formula_value"][0]), int(kv["scanned"][0]),
               kv["matches_formula"][0] == "true")
    best = prefix_sum(k, q)
    return got == (best, best, comb(1 << n, k), True)


def check_cli(argv, result, emitted: dict) -> bool:
    """Exit code 0 and a report carrying the reference numbers.

    ``emitted`` maps each path that an ``optimal --emit-set`` item writes
    to the size of the initial segment written there.
    """
    code, text = result
    if code != 0:
        return False
    command = argv[0]
    if command == "optimal":
        k, q = int(_opt(argv, "--k")), int(_opt(argv, "--q"))
        return _single(argv, text, "optimal_count") == prefix_sum(k, q)
    if command == "count":
        # The file is an initial segment written by ``optimal --emit-set``.
        q = int(_opt(argv, "--q"))
        k = emitted.get(_opt(argv, "--input"))
        return k is not None and _single(argv, text, "count") == prefix_sum(k, q)
    return {
        "fq": _check_fq,
        "counterexample": _check_counterexample,
        "bijection": _check_bijection,
        "oracle": _check_oracle,
    }[command](argv, text)

