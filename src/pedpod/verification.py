"""Numeric checks of the six identities and exhaustive audits of the maps.

The six identities, each with the smallest n from which it holds:

    T1  d1(n)   + d1(n-1)  = ped(n)       n >= 1
    T2  d2(n)   + d2(n-3)  = ped_gt1(n)   n >= 1
    T3  d3(n+2) + d3(n-1)  = ped(n)       n >= 1
    T4  o1(n)   + o1(n-1)  = pod(n)       n >= 2
    T5  o2(n)   + o2(n-3)  = pod_gt2(n)   n >= 5
    T6  o3(n+2) + o3(n-1)  = pod(n)       n >= 3

Counts at negative arguments are 0, so every row is well defined; rows
below the threshold are evaluated and reported but marked informational
and never fail a report.  (T5 genuinely breaks at n=3, where the right
side counts the partition (3) and the left side counts nothing.)

Audits enumerate a map's declared domain and codomain outright and check
totality, the declared weight shift, landing inside the codomain,
injectivity, surjectivity, and both round trips.  The audit weight n is
the identity's n.  Every side is a tuple of offset buckets of head
patterns, read off the identity its map proves, so one listing serves every
map: each bucket at weight n + offset, its members tagged with the offset
on a side of two buckets.  This is exactly the counting argument the
identities rest on.  An audit runs each map's unguarded recipes, as
`_audit_one` explains; `get_bijection` serves the same recipes behind
their guards.

Every report and record serializes from its own dataclass fields, in
declaration order, through `core._plain`: the JSON object of an
IdentityReport, AuditReport or CrossCheckReport, and of each IdentityRow,
AuditRecord or CrossCheckRecord in it, is its fields, with `identity_id`
written as "identity" by the one rename table, `core._RENAMED`.  A field
added to any of them reaches the JSON with no further code.  The reports
inherit `to_obj` and `to_csv` from `core.Report`, so each writes its csv
from the rows of its `_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import eq

from .bijections import (
    _RECIPES,
    Bijection,
    BijectionId,
    TaggedPreimage,
    TotalDecomposition,
    _side_members,
    get_bijection,
)
from .core import IDENTITIES, IdentitySpec, Partition, PartitionClass, Report, _aligned, _check_weight
from .counting import ENUM_CAP, SERIES_CLASSES, count_table, normalize_backend

_AUDIT_WEIGHT_CAP = 50
_FAILURE_CAP = 100


# ---------------------------------------------------------------------------
# Identity registry


def get_identity(key: str) -> IdentitySpec:
    spec = IDENTITIES.get(key.strip().upper()) if isinstance(key, str) else None
    if spec is None:
        known = ", ".join(IDENTITIES)
        raise ValueError(f"unknown identity {key!r} (known: {known})")
    return spec


def identity_ids() -> list[str]:
    return list(IDENTITIES)


def _check_range(n_lo: int, n_hi: int) -> None:
    if type(n_lo) is not int or type(n_hi) is not int or n_lo < 0 or n_hi < n_lo:
        raise ValueError(f"need ints 0 <= n_lo <= n_hi, got {n_lo!r} and {n_hi!r}")


# ---------------------------------------------------------------------------
# Identity verification


@dataclass(frozen=True)
class IdentityRow:
    n: int
    lhs_values: tuple[int, ...]
    lhs_total: int
    rhs_value: int
    equal: bool
    checked: bool  # False below the threshold: informational only

    def status(self) -> str:
        if self.checked:
            return "pass" if self.equal else "FAIL"
        return "info-pass" if self.equal else "info-fail"


@dataclass(frozen=True)
class IdentityReport(Report):
    identity_id: str
    description: str
    n_lo: int
    n_hi: int
    threshold: int
    backend: str
    overall_pass: bool
    rows: tuple[IdentityRow, ...]

    def _grid(self) -> list[list[str]]:
        head = ["n", *IDENTITIES[self.identity_id].term_labels(), "lhs", "rhs", "status"]
        return [head] + [
            [str(r.n), *map(str, r.lhs_values), str(r.lhs_total), str(r.rhs_value), r.status()] for r in self.rows
        ]

    def to_table(self) -> str:
        verdict = "PASS" if self.overall_pass else "FAIL"
        title = (
            f"identity {self.identity_id}: {self.description}  "
            f"[backend={self.backend}, n={self.n_lo}..{self.n_hi}]  {verdict}"
        )
        return _aligned(title, self._grid())


def verify_identity(
    identity: str,
    n_lo: int = 0,
    n_hi: int = 30,
    backend: str = "dp",
) -> IdentityReport:
    """Compare both sides of an identity for every n in [n_lo, n_hi]."""
    spec = get_identity(identity)
    _check_range(n_lo, n_hi)
    reach_of = {}  # each class's largest offset, at least 0
    for cls, off in (*spec.lhs, spec.rhs):
        reach_of[cls] = max(reach_of.get(cls, 0), off)
    reach = max(reach_of.values())
    tag = normalize_backend(backend)
    if tag == "ENUM" and n_hi + reach > ENUM_CAP:
        raise ValueError(
            f"identity {spec.identity_id} reads counts up to n_hi+{reach}, and the enum "
            f"backend is capped at n_max <= {ENUM_CAP}, so n_hi (--to) must be at most "
            f"{ENUM_CAP - reach}; use dp"
        )
    tables = {cls: count_table(cls, n_hi + r, tag).counts for cls, r in reach_of.items()}

    def column(cls: PartitionClass, off: int) -> tuple[int, ...]:
        # The term at n_lo..n_hi, zeros below weight 0; both slice ends are clamped, so a column
        # reaching no weight >= 0 is all zeros and every column is n_hi - n_lo + 1 long.
        lo = n_lo + off
        return (0,) * min(-lo, n_hi - n_lo + 1) + tables[cls][max(lo, 0):max(n_hi + off + 1, 0)]

    lhs = list(zip(*(column(cls, off) for cls, off in spec.lhs), strict=True))  # each row's terms
    rhs = column(*spec.rhs)
    totals = list(map(sum, lhs))
    ns = range(n_lo, n_hi + 1)
    checked = [n >= spec.threshold for n in ns]
    rows = tuple(map(IdentityRow, ns, lhs, totals, rhs, map(eq, totals, rhs), checked))
    overall = all(r.equal or not r.checked for r in rows)
    return IdentityReport(
        spec.identity_id, spec.describe(), n_lo, n_hi, spec.threshold, tag.lower(), overall, rows
    )


# ---------------------------------------------------------------------------
# Bijection audits


@dataclass(frozen=True)
class AuditRecord:
    n: int
    domain_size: int
    codomain_size: int
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class AuditReport(Report):
    subject: str
    kind: str  # "bijection" or "total"
    n_lo: int
    n_hi: int
    backend: str  # "enum": an audit lists both sides outright
    reconstructed: bool
    overall_pass: bool
    records: tuple[AuditRecord, ...]

    def _grid(self) -> list[list[str]]:
        return [["n", "domain_size", "codomain_size", "passed"]] + [
            [str(r.n), str(r.domain_size), str(r.codomain_size), str(r.passed).lower()] for r in self.records
        ]

    def to_table(self) -> str:
        verdict = "PASS" if self.overall_pass else "FAIL"
        flag = "  [reconstructed]" if self.reconstructed else ""
        lines = [f"audit {self.subject} ({self.kind}) n={self.n_lo}..{self.n_hi}  {verdict}{flag}"]
        for r in self.records:
            mark = "ok" if r.passed else "FAIL"
            lines.append(f"  n={r.n:<3d} domain={r.domain_size:<6d} codomain={r.codomain_size:<6d} {mark}")
            for f in r.failures:
                lines.append(f"    ! {f}")
        return "\n".join(lines)


def _audit_one(mapping: Bijection, n: int) -> AuditRecord:
    """Audit a map at identity weight n, calling each direction once per member.

    forward must be total and injective into the codomain at the right weight,
    and inverse must return each codomain member's recorded preimage; together
    these prove both round trips.  The audit runs a map's unguarded recipes
    (`bijections._RECIPES`): it lists both sides with `_side_members`, so every
    member it passes a direction is one by construction, and a guard would
    only test it again.  Whatever a direction raises is recorded as that
    member's failure, and so is a forward result that is not a (tagged)
    partition.
    """
    tagged = isinstance(mapping, TotalDecomposition)
    domain, codomain = ([] if n < mapping.min_weight else _side_members(n, side, mapping.primed)
                        for side in (mapping.domain, mapping.codomain))
    members = set(codomain)
    failures: list[str] = []
    preimage: dict[Partition | TaggedPreimage, Partition] = {}
    for p in domain:
        try:
            q = mapping.forward(p)
        except Exception as exc:
            failures.append(f"forward undefined on {p}: {exc}")
            continue
        if tagged:
            well_formed = isinstance(q, TaggedPreimage) and type(q.offset) is int and isinstance(q.partition, Partition)
        else:
            well_formed = isinstance(q, Partition)
        if not well_formed:
            failures.append(f"{p} -> {q!r} is not a {'tagged partition' if tagged else 'partition'}")
            continue
        if tagged and q.partition.weight != n + q.offset:
            failures.append(f"{p} -> {q} has weight {q.partition.weight}, bucket expects {n + q.offset}")
        elif not tagged and q.weight != n:
            failures.append(f"{p} -> {q} shifts weight by {q.weight - p.weight}, not {mapping.weight_shift}")
        if q not in members:
            failures.append(f"{p} -> {q} lands outside the codomain")
        if q in preimage:
            failures.append(f"{preimage[q]} and {p} collide on {q}")
        else:
            preimage[q] = p
    for q in codomain:
        if q not in preimage:
            failures.append(f"{q} is in the codomain but has no preimage")
            continue
        try:
            back = mapping.inverse(q)
        except Exception as exc:
            failures.append(f"inverse undefined on {q}: {exc}")
            continue
        if back != preimage[q]:
            failures.append(f"round trip failed: {preimage[q]} -> {q} -> {back}")
    return AuditRecord(n, len(domain), len(codomain), not failures, tuple(failures))


def _cap_failures(records: list[AuditRecord]) -> list[AuditRecord]:
    budget = _FAILURE_CAP
    capped = []
    for rec in records:
        over = len(rec.failures) - budget
        if over > 0:
            rec = replace(rec, failures=rec.failures[:budget] + (f"... {over} more suppressed",))
        budget = max(0, -over)
        capped.append(rec)
    return capped


def audit_bijection_range(key: "BijectionId | str", n_lo: int, n_hi: int) -> AuditReport:
    """Exhaustively audit one map for every identity weight in [n_lo, n_hi]."""
    mapping = get_bijection(key)
    _check_range(n_lo, n_hi)
    if n_hi > _AUDIT_WEIGHT_CAP:
        raise ValueError(f"audits list both sides of a map in full; n_hi is capped at {_AUDIT_WEIGHT_CAP}")
    records = _cap_failures([_audit_one(_RECIPES[mapping.id], n) for n in range(n_lo, n_hi + 1)])
    kind = "total" if isinstance(mapping, TotalDecomposition) else "bijection"
    return AuditReport(
        mapping.name, kind, n_lo, n_hi, "enum", mapping.reconstructed, all(r.passed for r in records), tuple(records)
    )


# ---------------------------------------------------------------------------
# Backend cross-checks


@dataclass(frozen=True)
class CrossCheckRecord:
    name: str
    n_hi: int
    passed: bool
    mismatches: tuple[str, ...]


@dataclass(frozen=True)
class CrossCheckReport(Report):
    n_max: int
    overall_pass: bool
    records: tuple[CrossCheckRecord, ...]

    def _grid(self) -> list[list[str]]:
        return [["check", "n_hi", "passed"]] + [[r.name, str(r.n_hi), str(r.passed).lower()] for r in self.records]

    def to_table(self) -> str:
        verdict = "PASS" if self.overall_pass else "FAIL"
        width = max(len(r.name) for r in self.records)
        lines = [f"crosscheck n_max={self.n_max}  {verdict}"]
        for r in self.records:
            mark = "ok" if r.passed else "FAIL"
            lines.append(f"  {r.name.ljust(width)}  n<={r.n_hi:<4d} {mark}")
            for m in r.mismatches:
                lines.append(f"    ! {m}")
        return "\n".join(lines)


_ENUM_CHECK_CAP = 35


def _compare(name: str, n_hi: int, **tables: tuple[int, ...]) -> CrossCheckRecord:
    """A record of the first 20 weights <= n_hi at which two named tables differ."""
    (label_a, a), (label_b, b) = tables.items()
    bad = tuple(f"n={n}: {label_a}={a[n]} {label_b}={b[n]}" for n in range(n_hi + 1) if a[n] != b[n])[:20]
    return CrossCheckRecord(name, n_hi, not bad, bad)


def cross_check_counts(n_max: int) -> CrossCheckReport:
    """Check ENUM=DP, DP=SERIES, and ped=four_regular over 0..n_max."""
    _check_weight(n_max, "n_max")
    records = []
    enum_top = min(n_max, _ENUM_CHECK_CAP)
    for cls in PartitionClass:
        a = count_table(cls, enum_top, "enum").counts
        b = count_table(cls, enum_top, "dp").counts
        records.append(_compare(f"enum_vs_dp:{cls.value}", enum_top, enum=a, dp=b))
    for cls in SERIES_CLASSES:
        a = count_table(cls, n_max, "dp").counts
        b = count_table(cls, n_max, "series").counts
        records.append(_compare(f"dp_vs_series:{cls.value}", n_max, dp=a, series=b))
    ped = count_table(PartitionClass.PED, n_max, "dp").counts
    four = count_table(PartitionClass.FOUR_REGULAR, n_max, "dp").counts
    records.append(_compare("ped_equals_four_regular", n_max, ped=ped, four_regular=four))
    return CrossCheckReport(n_max, all(r.passed for r in records), tuple(records))
