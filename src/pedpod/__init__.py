"""Restricted partition classes, counting back-ends, bijections, and checks.

The package is organized bottom-up:

    core          partition values, the one table of class specs, the six identities
    enumeration   exhaustive generation and class member listings
    counting      three independent counting back-ends (enum, dp, series)
    bijections    the weight-shifting maps behind six counting identities
    verification  numeric identity checks, exhaustive map audits
    cli           command line front end
"""

from .core import Partition, PartitionClass, is_member, parse_partition
from .enumeration import ClassListing, all_partitions, class_members, partitions_of
from .counting import CountTable, class_count, count_table
from .bijections import (
    Bijection,
    BijectionId,
    DomainError,
    TaggedPreimage,
    TotalDecomposition,
    bijection_names,
    get_bijection,
    thm2_sets,
    thm5_sets,
)
from .verification import (
    IDENTITIES,
    AuditRecord,
    AuditReport,
    CrossCheckRecord,
    CrossCheckReport,
    IdentityReport,
    IdentityRow,
    IdentitySpec,
    audit_bijection_range,
    cross_check_counts,
    get_identity,
    identity_ids,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "PartitionClass",
    "is_member",
    "parse_partition",
    "ClassListing",
    "all_partitions",
    "class_members",
    "partitions_of",
    "CountTable",
    "class_count",
    "count_table",
    "Bijection",
    "BijectionId",
    "DomainError",
    "TaggedPreimage",
    "TotalDecomposition",
    "bijection_names",
    "get_bijection",
    "thm2_sets",
    "thm5_sets",
    "IDENTITIES",
    "AuditRecord",
    "AuditReport",
    "CrossCheckRecord",
    "CrossCheckReport",
    "IdentityReport",
    "IdentityRow",
    "IdentitySpec",
    "audit_bijection_range",
    "cross_check_counts",
    "get_identity",
    "identity_ids",
    "verify_identity",
    "__version__",
]
