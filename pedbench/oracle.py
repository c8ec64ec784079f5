"""Reference answers for the benchmark, computed without pedpod.

Everything here is written from the definitions in the README, not from
the package, so that a wrong answer from pedpod cannot also be the
reference it is checked against:

- `all` comes from sympy's `partition(n)` (Hardy-Ramanujan-Rademacher).
- `ped` and `four_regular` are E(q^4)/E(q), a signed sum of p(n - 4g)
  over the generalized pentagonal numbers g (Euler's pentagonal theorem).
- `pod` is E(q^2)/(E(q)E(q^4)): distinct-part counts convolved with
  p(j) at weight 4j.
- `ped_gt1` and `pod_gt2` are (1 - q) times `ped` and `pod`, with 0 at
  weight 0.
- d1..d3 and o1..o3 follow from the identities T1..T6 as recurrences,
  seeded by brute-force counts at small n; d1 = d2 + d3 and o1 = o2 + o3
  are checked on the way.

Membership, the letter sets of thm2 and thm5, and partition generation
are the benchmark's own code.  sympy is imported only when reference
tables are built, so a worker process that checks answers never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

CLASSES = (
    "all", "four_regular", "ped", "ped_gt1", "d1", "d2", "d3",
    "pod", "pod_gt2", "o1", "o2", "o3",
)
PRODUCT_CLASSES = ("ped", "ped_gt1", "pod", "pod_gt2", "four_regular")

# identity: (lhs class, lhs offsets, rhs class, threshold)
IDENTITIES = {
    "T1": ("d1", (0, -1), "ped", 1),
    "T2": ("d2", (0, -3), "ped_gt1", 1),
    "T3": ("d3", (2, -1), "ped", 1),
    "T4": ("o1", (0, -1), "pod", 2),
    "T5": ("o2", (0, -3), "pod_gt2", 5),
    "T6": ("o3", (2, -1), "pod", 3),
}

_BASE_TOP = 12  # brute-force counts seed the recurrences up to this weight


# ---------------------------------------------------------------------------
# Membership


def _no_repeat_of_parity(p: tuple, parity: int) -> bool:
    seen = set()
    for x in p:
        if x % 2 == parity:
            if x in seen:
                return False
            seen.add(x)
    return True


def is_partition_of(p: tuple, n: int) -> bool:
    """A non-increasing tuple of positive ints summing to n."""
    return (
        all(type(x) is int and x >= 1 for x in p)
        and all(a >= b for a, b in zip(p, p[1:]))
        and sum(p) == n
    )


def member(p: tuple, cls: str) -> bool:
    """Membership of a canonical partition in a class, by the README's wording."""
    if cls == "all":
        return True
    if cls == "four_regular":
        return all(x % 4 != 0 for x in p)
    family, restricted = ("ped", 0) if cls in ("ped", "ped_gt1", "d1", "d2", "d3") else ("pod", 1)
    if not _no_repeat_of_parity(p, restricted):
        return False
    if cls == family:
        return True
    if not p:
        return False
    if cls in ("ped_gt1", "pod_gt2"):
        return min(p) > (1 if family == "ped" else 2)
    largest_parity = 1 if family == "ped" else 0
    if p[0] % 2 != largest_parity:
        return False
    repeats = p.count(p[0]) >= 2
    if cls in ("d2", "o2"):
        return repeats
    if cls in ("d3", "o3"):
        return not repeats
    return True  # d1, o1


def partitions(n: int) -> Iterator[tuple]:
    """Every partition of n in decreasing lexicographic order."""

    def rec(rest: int, cap: int) -> Iterator[tuple]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    if n < 0:
        return iter(())
    return rec(n, n)


# ---------------------------------------------------------------------------
# The thm2 and thm5 letter sets, from the definitions in bijections' docs


def _ped(p):
    return _no_repeat_of_parity(p, 0)


def _pod(p):
    return _no_repeat_of_parity(p, 1)


def _gap2(p):
    return len(p) == 1 or p[1] <= p[0] - 2


def _c2(p):
    return bool(p) and p[0] % 2 == 0 and 1 not in p and _ped(p)


def _d2(p):
    return bool(p) and p[0] % 2 == 1 and 1 not in p and _gap2(p) and _ped(p)


def _a2(p):
    return bool(p) and 1 in p and member(p, "d2")


def _b2(p):
    return len(p) > 1 and p[0] % 2 == 1 and p[1] == p[0] - 1 and 1 in p and _ped(p)


def _a2_prime(p):
    return _a2(p) and p.count(1) in (2, len(p))


LETTER_SETS = {
    "thm2": {
        "C": _c2,
        "D": _d2,
        "A": _a2,
        "B": _b2,
        "C'": lambda p: _c2(p) and (len(p) == 1 or (len(p) == 2 and p[1] == 2)),
        "D'": lambda p: _d2(p) and (len(p) == 1 or p[1] == p[0] - 2),
        "A'": _a2_prime,
        "B'": lambda p: _b2(p) and p[0] == 3 and sum(p) % 2 == 0,
    },
    "thm5": {
        "C": lambda p: bool(p) and p[0] % 2 == 1 and min(p) >= 3 and _pod(p),
        "D": lambda p: bool(p) and p[0] % 2 == 0 and min(p) >= 3 and _gap2(p) and _pod(p),
        "A": lambda p: bool(p) and min(p) <= 2 and member(p, "o2"),
        "B": lambda p: len(p) > 1 and p[0] % 2 == 0 and p[1] == p[0] - 1 and min(p) <= 2 and _pod(p),
    },
}


@lru_cache(maxsize=None)
def letter_sets(theorem: str, n: int) -> dict[str, list[tuple]]:
    """Members of each letter set at weight n, in decreasing lex order (shared; do not mutate)."""
    tests = LETTER_SETS[theorem]
    out: dict[str, list[tuple]] = {name: [] for name in tests}
    for p in partitions(n):
        for name, test in tests.items():
            if test(p):
                out[name].append(p)
    return out


# ---------------------------------------------------------------------------
# Reference count tables


def _pentagonal_signs(limit: int) -> list[tuple[int, int]]:
    """(g, sign) for the generalized pentagonal numbers g <= limit."""
    out = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= limit:
                out.append((g, sign))
        k += 1
    return out


def _times_euler(p: list[int], step: int) -> list[int]:
    """Coefficients of E(q^step) * sum p[n] q^n, truncated to len(p)."""
    top = len(p) - 1
    terms = _pentagonal_signs(top // step)
    return [sum(s * p[n - step * g] for g, s in terms if step * g <= n) for n in range(top + 1)]


def _recur(rhs: list[int], offsets: tuple[int, int], threshold: int, base: list[int]) -> list[int]:
    """Solve lhs(n + a) + lhs(n + b) = rhs(n) for the lhs counts.

    a is the larger offset; values below threshold + a come from `base`.
    """
    a, b = offsets
    top = len(rhs) - 1
    out = [0] * (top + 1)
    for m in range(top + 1):
        if m < threshold + a:
            out[m] = base[m]
        else:
            prev = m - a + b
            out[m] = rhs[m - a] - (out[prev] if prev >= 0 else 0)
    return out


def brute_counts(n_max: int) -> dict[str, list[int]]:
    """Counts by enumeration and the benchmark's own predicates."""
    tables = {cls: [0] * (n_max + 1) for cls in CLASSES}
    for n in range(n_max + 1):
        for p in partitions(n):
            for cls in CLASSES:
                if member(p, cls):
                    tables[cls][n] += 1
    return tables


def reference_tables(n_max: int) -> dict[str, list[int]]:
    """Exact counts of every class at weights 0..n_max."""
    from sympy.functions.combinatorial.numbers import partition

    p = [int(partition(n)) for n in range(n_max + 1)]
    ped = _times_euler(p, 4)
    distinct = _times_euler(p, 2)  # E(q^2)/E(q): partitions into distinct parts
    pod = [sum(distinct[n - 4 * j] * p[j] for j in range(n // 4 + 1)) for n in range(n_max + 1)]
    ref = {
        "all": p,
        "ped": ped,
        "four_regular": ped,
        "ped_gt1": [0] + [ped[n] - ped[n - 1] for n in range(1, n_max + 1)],
        "pod": pod,
        "pod_gt2": [0] + [pod[n] - pod[n - 1] for n in range(1, n_max + 1)],
    }
    base = brute_counts(min(n_max, _BASE_TOP))
    for ident, (lhs, offsets, rhs, threshold) in IDENTITIES.items():
        small = base[lhs] + [0] * (n_max + 1)
        ref[lhs] = _recur(ref[rhs], offsets, threshold, small)
    for cls, counts in base.items():
        if counts != ref[cls][: len(counts)]:
            raise AssertionError(f"reference for {cls} disagrees with brute force")
    for whole, parts in (("d1", ("d2", "d3")), ("o1", ("o2", "o3"))):
        if any(ref[whole][n] != ref[parts[0]][n] + ref[parts[1]][n] for n in range(n_max + 1)):
            raise AssertionError(f"reference breaks {whole} = {parts[0]} + {parts[1]}")
    return ref


def count_at(ref: dict[str, list[int]], cls: str, n: int) -> int:
    return ref[cls][n] if n >= 0 else 0


# ---------------------------------------------------------------------------
# Audit sizes


# name: (domain class, domain weight offset, smallest domain weight)
_PLAIN_DOMAINS = {
    "thm1.add": ("d1", -1, 0),
    "thm2.shift": ("d2", -3, 0),
    "thm3.add": ("d3", -1, 0),
    "thm3.sub": ("d3", 2, 3),
    "thm4.add": ("o1", -1, 0),
    "thm5.shift": ("o2", -3, 0),
    "thm6.add": ("o3", -1, 0),
    "thm6.sub": ("o3", 2, 5),
}
_SET_DOMAINS = {
    "thm2.exchange.CA": ("thm2", ("C",), ("C'",), ("A",), ("A'",)),
    "thm2.exchange.DB": ("thm2", ("D",), ("D'",), ("B",), ("B'",)),
    "thm2.exceptional": ("thm2", ("C'", "D'"), (), ("A'", "B'"), ()),
    "thm5.exchange": ("thm5", ("C", "D"), (), ("A", "B"), ()),
}
# name: (domain class, bucket class, min weight)
_TOTALS = {"thm2.total": ("ped_gt1", "d2", 1), "thm5.total": ("pod_gt2", "o2", 5)}

MAP_NAMES = tuple(sorted((*_PLAIN_DOMAINS, *_SET_DOMAINS, *_TOTALS)))


def audit_sizes(name: str, n: int, ref: dict[str, list[int]]) -> tuple[int, int]:
    """(domain size, codomain size) of a map's audit record at identity weight n."""
    if name in _TOTALS:
        dom, bucket, gate = _TOTALS[name]
        if n < gate:
            return 0, 0
        return count_at(ref, dom, n), count_at(ref, bucket, n) + count_at(ref, bucket, n - 3)
    if name in _PLAIN_DOMAINS:
        cls, offset, gate = _PLAIN_DOMAINS[name]
        w = n + offset
        size = count_at(ref, cls, w) if w >= gate else 0
        return size, size
    theorem, dom_in, dom_out, cod_in, cod_out = _SET_DOMAINS[name]
    sets = letter_sets(theorem, n)

    def size(inside, outside):
        return len(set().union(*(sets[s] for s in inside)) - set().union(*(sets[s] for s in outside)))

    return size(dom_in, dom_out), size(cod_in, cod_out)


def domain_member(name: str, p: tuple) -> bool:
    """Whether p is in the declared domain of a map (at its own weight)."""
    if name in _TOTALS:
        dom, _, gate = _TOTALS[name]
        return sum(p) >= gate and member(p, dom)
    if name in _PLAIN_DOMAINS:
        cls, _, gate = _PLAIN_DOMAINS[name]
        return sum(p) >= gate and member(p, cls)
    theorem, dom_in, dom_out, _, _ = _SET_DOMAINS[name]
    tests = LETTER_SETS[theorem]
    return any(tests[s](p) for s in dom_in) and not any(tests[s](p) for s in dom_out)


def weight_shift(name: str) -> int:
    """How much the forward map adds to the weight (totals: see the bucket tag)."""
    if name in _PLAIN_DOMAINS:
        return -_PLAIN_DOMAINS[name][1]
    return 0
