"""Command line interface.

Subcommands:

    count       print a counting table for one class
    list        print the members of a class at one weight
    apply       run one bijection forward or backward on a partition
    audit       exhaustively audit one bijection over a weight range
    verify      check one identity over a range, on the enum or dp back-end
    crosscheck  compare the counting back-ends against each other

Exit status: 0 on success, 1 when a verification or audit fails, 2 on
usage errors (unknown selectors, malformed partitions, bad ranges).  Fixed
caps bound the work: `count --to`, `verify --to` and `crosscheck --to` are
at most 10000 on every back-end (the enum back-end stops earlier, at 50),
`list --n` is at most 60, where `list --class all` prints p(60) = 966467
lines, and `audit --to` is at most 50, where thm3.sub has 31535 members on
each side.
Output is deterministic for fixed inputs.  The PEDPOD_WIDTH environment
variable, when set to a positive integer in ASCII digits, caps the line
width of table output; csv and json output ignore it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from .bijections import TaggedPreimage, TotalDecomposition, bijection_names, get_bijection
from .core import IDENTITIES, Partition, PartitionClass, parse_partition
from .counting import BACKENDS, count_table
from .enumeration import class_members
from .verification import (
    audit_bijection_range,
    cross_check_counts,
    identity_ids,
    verify_identity,
)

_FORMATS = ("table", "csv", "json")
COUNT_TO_CAP = 10000
LIST_N_CAP = 60
# apply --tag names a total's bucket by its tag text: T2's left-hand offsets, which T5's repeat.
_TAG_OFFSETS = {TaggedPreimage(offset, Partition()).tag_text(): offset for _, offset in IDENTITIES["T2"].lhs}
assert list(_TAG_OFFSETS.values()) == [offset for _, offset in IDENTITIES["T5"].lhs]


def _width_hint() -> "int | None":
    raw = os.environ.get("PEDPOD_WIDTH", "").strip()
    if not (raw.isascii() and raw.isdigit()):  # isdigit alone admits '²', which int() refuses
        return None
    width = int(raw)
    return width if width > 0 else None


def _render(report, fmt: str) -> None:
    """Print a report through its to_obj, to_csv or to_table, as fmt asks."""
    if fmt == "json":
        print(json.dumps(report.to_obj(), indent=2))
    elif fmt == "csv":
        print(report.to_csv())
    else:
        text = report.to_table()
        width = _width_hint()
        if width is not None:
            text = "\n".join(line[:width] for line in text.splitlines())
        print(text)


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} is capped at {cap}, got {value}")


def _cmd_count(args):
    _check_cap("count --to", args.to, COUNT_TO_CAP)
    return count_table(PartitionClass.from_name(args.cls), args.to, args.backend)


def _cmd_list(args):
    _check_cap("list --n", args.n, LIST_N_CAP)
    return class_members(args.n, PartitionClass.from_name(args.cls))


class _Applied(NamedTuple):
    """The result of `apply`, in the shape _render prints."""

    payload: dict
    text: str

    def to_obj(self) -> dict:
        return self.payload

    def to_csv(self) -> str:
        return f'output\n"{self.text}"'

    def to_table(self) -> str:
        return self.text


def _cmd_apply(args):
    mapping = get_bijection(args.bijection)
    p = x = parse_partition(args.partition)
    is_total = isinstance(mapping, TotalDecomposition)
    if args.tag is not None and not (is_total and args.inverse):
        raise ValueError("--tag only applies when inverting a tagged decomposition")
    if is_total and args.inverse:
        if args.tag is None:
            tags = " or ".join(f"--tag {tag}" for tag in _TAG_OFFSETS)
            raise ValueError(f"inverting a tagged decomposition needs {tags}")
        x = TaggedPreimage(_TAG_OFFSETS[args.tag], p)
    y = mapping.inverse(x) if args.inverse else mapping.forward(x)
    x_tag, y_tag = ({"tag": z.tag_text()} if isinstance(z, TaggedPreimage) else {} for z in (x, y))
    payload = {"input": list(p), **x_tag, "output": list(y.partition if y_tag else y), **y_tag,
               "bijection": mapping.name, "direction": "inverse" if args.inverse else "forward"}
    return _Applied(payload, str(y))


def _cmd_audit(args):
    return audit_bijection_range(args.bijection, getattr(args, "from"), args.to)


def _cmd_verify(args):
    _check_cap("verify --to", args.to, COUNT_TO_CAP)
    return verify_identity(args.identity, getattr(args, "from"), args.to, args.backend)


def _cmd_crosscheck(args):
    _check_cap("crosscheck --to", args.to, COUNT_TO_CAP)
    return cross_check_counts(args.to)


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=_FORMATS, default="table")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pedpod",
        description="Count, list, transform, and verify restricted partitions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    class_names = [c.value for c in PartitionClass]

    count = sub.add_parser("count", help="print a counting table for one class")
    count.add_argument("--class", dest="cls", required=True, choices=class_names)
    count.add_argument("--to", type=int, required=True, metavar="N")
    count.add_argument("--backend", choices=BACKENDS, default="dp")
    _add_format(count)
    count.set_defaults(handler=_cmd_count)

    lst = sub.add_parser("list", help="print the members of a class at one weight")
    lst.add_argument("--class", dest="cls", required=True, choices=class_names)
    lst.add_argument("--n", type=int, required=True)
    _add_format(lst)
    lst.set_defaults(handler=_cmd_list)

    apply_ = sub.add_parser("apply", help="run one bijection on a partition")
    apply_.add_argument("--bijection", required=True, choices=bijection_names())
    apply_.add_argument("--partition", required=True, help='core text form, e.g. "(3,3,2)"')
    apply_.add_argument("--inverse", action="store_true")
    apply_.add_argument("--tag", choices=sorted(_TAG_OFFSETS), default=None,
                        help="bucket tag when inverting a tagged decomposition")
    _add_format(apply_)
    apply_.set_defaults(handler=_cmd_apply)

    audit = sub.add_parser("audit", help="exhaustively audit one bijection")
    audit.add_argument("--bijection", required=True, choices=bijection_names())
    audit.add_argument("--from", type=int, default=0, metavar="N")
    audit.add_argument("--to", type=int, default=20, metavar="N")
    _add_format(audit)
    audit.set_defaults(handler=_cmd_audit)

    verify = sub.add_parser("verify", help="check one identity over a range")
    verify.add_argument("--identity", required=True, choices=identity_ids())
    verify.add_argument("--from", type=int, default=0, metavar="N")
    verify.add_argument("--to", type=int, default=30, metavar="N")
    # Every identity reads a d or o class, and the series back-end has no product form for those.
    verify.add_argument("--backend", choices=("enum", "dp"), default="dp")
    _add_format(verify)
    verify.set_defaults(handler=_cmd_verify)

    cross = sub.add_parser("crosscheck", help="compare the counting back-ends")
    cross.add_argument("--to", type=int, default=100, metavar="N")
    _add_format(cross)
    cross.set_defaults(handler=_cmd_crosscheck)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
        _render(report, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if getattr(report, "overall_pass", True) else 1  # a count, listing or apply always passes


if __name__ == "__main__":
    sys.exit(main())
