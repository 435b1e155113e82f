"""Unit tests for the workload generators (repro.workloads)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import SpecialisationStructure, is_intersection_closed
from repro.errors import ExtensionError
from repro.workloads import (
    SHAPES,
    all_statements,
    enforce_extension_axiom,
    inject_containment_violation,
    inject_injectivity_violation,
    intersection_close,
    random_extension,
    random_fd,
    random_premises,
    random_schema,
    schema_of_attribute_sets,
)


class TestSchemas:
    def test_all_shapes_valid(self, rng):
        for shape in SHAPES:
            schema = random_schema(rng, shape=shape)
            assert len(schema) >= 1

    def test_chain_shape_is_chain(self, rng):
        schema = random_schema(rng, shape="chain", n_types=5)
        spec = SpecialisationStructure(schema)
        sizes = sorted(len(e.attributes) for e in schema)
        assert sizes == sorted(set(sizes))  # strictly growing
        assert len(spec.roots()) == 1

    def test_unknown_shape(self, rng):
        with pytest.raises(ValueError):
            random_schema(rng, shape="spiral")

    def test_deterministic_given_seed(self):
        s1 = random_schema(random.Random(5), shape="tree")
        s2 = random_schema(random.Random(5), shape="tree")
        assert {e.attributes for e in s1} == {e.attributes for e in s2}

    def test_schema_of_attribute_sets(self):
        schema = schema_of_attribute_sets([{"a"}, {"a", "b"}, {"a"}])
        assert len(schema) == 2  # duplicates collapse

    def test_intersection_close_idempotent(self, rng):
        schema = random_schema(rng, n_attrs=6, n_types=5)
        closed = intersection_close(schema)
        assert is_intersection_closed(closed)
        again = intersection_close(closed)
        assert len(again) == len(closed)


class TestExtensions:
    def test_random_extension_consistent_all_shapes(self):
        for seed in range(8):
            rng = random.Random(seed)
            schema = random_schema(rng, shape=rng.choice(list(SHAPES)))
            db = random_extension(rng, schema)
            assert db.satisfies_containment(), seed
            assert db.satisfies_extension_axiom(), seed

    def test_rows_scale(self, rng):
        schema = random_schema(rng, shape="chain", n_types=4)
        small = random_extension(random.Random(1), schema, rows_per_leaf=1)
        large = random_extension(random.Random(1), schema, rows_per_leaf=8)
        assert large.total_instances() >= small.total_instances()

    def test_enforce_extension_axiom_repairs(self, db):
        broken = db.replace("manager", db.R("manager").with_tuples([
            {"name": "ann", "age": 31, "depname": "sales", "budget": 500},
        ]))
        assert not broken.satisfies_extension_axiom()
        repaired = enforce_extension_axiom(broken)
        assert repaired.satisfies_extension_axiom()
        assert len(repaired.R("manager")) == 1

    def test_containment_injection(self, rng, db):
        broken = inject_containment_violation(rng, db)
        assert not broken.satisfies_containment()

    def test_injectivity_injection(self, rng, db):
        broken = inject_injectivity_violation(rng, db)
        assert not broken.satisfies_extension_axiom()

    def test_injection_needs_isa_edge(self, rng):
        flat = schema_of_attribute_sets([{"a"}, {"b"}])
        from repro.core import DatabaseExtension

        with pytest.raises(ExtensionError):
            inject_containment_violation(rng, DatabaseExtension(flat))


class TestFDWorkloads:
    def test_random_fd_well_typed(self, rng, schema):
        for _ in range(20):
            fd = random_fd(rng, schema)
            fd.validate(schema)

    def test_random_fd_none_when_impossible(self, rng):
        flat = schema_of_attribute_sets([{"a"}, {"b"}])
        assert random_fd(rng, flat) is None

    def test_random_premises_nontrivial(self, rng, schema):
        premises = random_premises(rng, schema, count=4)
        assert premises
        assert all(not fd.is_trivial() for fd in premises)

    def test_all_statements_complete(self, schema):
        statements = all_statements(schema)
        # G-set sizes: person 1, employee 2, department 1, manager 3, worksfor 4.
        assert len(statements) == 1 + 4 + 1 + 9 + 16


_SPECS_SCRIPT = """
import json, random
from repro.workloads import random_txn_specs, serving_state
_, db, _ = serving_state(30)
print(json.dumps(random_txn_specs(random.Random(7), db, 40), sort_keys=True))
"""


class TestSessionSpecs:
    def test_random_txn_specs_ignore_the_hash_seed(self):
        """The rows drawn for a ``random.Random`` seed are the same in
        every interpreter, whatever its string hash seed."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run([sys.executable, "-c", _SPECS_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
