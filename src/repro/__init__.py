"""repro — a full reproduction of Siebes & Kersten (1987).

*Using Design Axioms and Topology to Model Database Semantics* (CWI report
CS-R8711) models a database's intension as a finite topological space over
entity types and its extension as projection-linked relations, with six
design axioms and an entity-level functional-dependency calculus on top.

Package map (``kernel/README.md`` and ``server/README.md`` document the
kernel and the serving stack):

* :mod:`repro.core` — the paper's model: axioms, specialisation and
  generalisation topologies, contributors, subbase choice, extensions and
  their mappings, entity-level FDs with the Armstrong system, dependency
  mappings, integrity constraints, the design procedure, and schema
  evolution analysis.
* :mod:`repro.topology` — the finite-topology substrate (subbase
  generation, Alexandrov order, continuous maps, presheaves).
* :mod:`repro.relational` — the relational substrate (algebra, classical
  FD theory, chase, normalization baselines).
* :mod:`repro.universal`, :mod:`repro.ear` — the Universal Relation and
  EAR baselines the paper positions itself against.
* :mod:`repro.nulls` — the section-6 future work: boolean-algebra domains
  and incomplete information.
* :mod:`repro.workloads`, :mod:`repro.viz` — generators and renderers for
  the experiments.  ``tests/test_paper_claims.py`` checks each claim of
  the paper, and ``benchmarks/bench_e*.py`` reproduces experiments E1-E13.

Quickstart::

    from repro.core import Schema, SpecialisationStructure
    from repro.core.employee import employee_schema

    schema = employee_schema()
    spec = SpecialisationStructure(schema)
    print(sorted(e.name for e in spec.S(schema["person"])))
"""

from repro import core, ear, nulls, relational, topology, universal, viz, workloads
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "core",
    "ear",
    "nulls",
    "relational",
    "topology",
    "universal",
    "viz",
    "workloads",
    "ReproError",
    "__version__",
]
