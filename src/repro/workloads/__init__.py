"""Workload generators: random schemas, consistent extensions, FD sets."""

from repro.workloads.schemas import (
    SHAPES,
    random_schema,
    schema_of_attribute_sets,
    intersection_close,
)
from repro.workloads.extensions import (
    enforce_extension_axiom,
    enforce_extension_axiom_naive,
    inject_containment_violation,
    inject_injectivity_violation,
    random_extension,
    random_tuple,
)
from repro.workloads.fds import all_statements, random_fd, random_premises
from repro.workloads.sessions import (
    contended_commit_specs,
    disjoint_commit_specs,
    manager_stream,
    op_record,
    random_txn_specs,
    serving_state,
)

__all__ = [
    "contended_commit_specs",
    "disjoint_commit_specs",
    "manager_stream",
    "op_record",
    "random_txn_specs",
    "serving_state",
    "SHAPES",
    "random_schema",
    "schema_of_attribute_sets",
    "intersection_close",
    "enforce_extension_axiom",
    "enforce_extension_axiom_naive",
    "inject_containment_violation",
    "inject_injectivity_violation",
    "random_extension",
    "random_tuple",
    "all_statements",
    "random_fd",
    "random_premises",
]
