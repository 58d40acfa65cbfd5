"""Unit tests for schemas, relations and table transformations."""

import numpy as np
import pytest

from repro.dataset import Attribute, Relation, Schema
from repro.dataset.relation import STABILITY


@pytest.fixture
def schema():
    return Schema.build(
        [
            Attribute("age", 4, lo=0.0, hi=100.0),
            Attribute("gender", 2, labels=("male", "female")),
            Attribute("income", 5, lo=0.0, hi=100_000.0),
        ]
    )


@pytest.fixture
def relation(schema):
    records = np.array(
        [
            [0, 0, 1],
            [1, 1, 2],
            [2, 0, 2],
            [3, 1, 4],
            [1, 0, 0],
            [1, 0, 2],
        ]
    )
    return Relation(schema, records)


class TestAttribute:
    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Attribute("c", 3, labels=("a", "b"))

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            Attribute("bad", 0)


class TestSchema:
    def test_domain_and_size(self, schema):
        assert schema.domain == (4, 2, 5)
        assert schema.domain_size == 40

    def test_index_of(self, schema):
        assert schema.index_of("gender") == 1
        with pytest.raises(KeyError):
            schema.index_of("missing")

    def test_getitem_by_name_and_index(self, schema):
        assert schema["age"].size == 4
        assert schema[2].name == "income"

    def test_project(self, schema):
        projected = schema.project(["income", "age"])
        assert [a.name for a in projected.attributes] == ["income", "age"]
        assert projected.domain == (5, 4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema.build([Attribute("a", 2), Attribute("a", 3)])

    def test_describe(self, schema):
        assert "age:4" in schema.describe()


class TestRelation:
    def test_len_and_column(self, relation):
        assert len(relation) == 6
        assert np.array_equal(relation.column("gender"), [0, 1, 0, 1, 0, 0])

    def test_out_of_domain_rejected(self, schema):
        with pytest.raises(ValueError):
            Relation(schema, np.array([[0, 0, 9]]))

    def test_where_mapping_value(self, relation):
        filtered = relation.where({"gender": 0})
        assert len(filtered) == 4

    def test_where_mapping_range(self, relation):
        filtered = relation.where({"age": (1, 2)})
        assert len(filtered) == 4

    def test_where_mapping_set(self, relation):
        filtered = relation.where({"income": [0, 4]})
        assert len(filtered) == 2

    def test_where_callable(self, relation):
        filtered = relation.where(lambda r: r[:, 0] >= 2)
        assert len(filtered) == 2

    def test_select(self, relation):
        projected = relation.select(["income"])
        assert [a.name for a in projected.schema.attributes] == ["income"]
        assert projected.records.shape == (6, 1)

    def test_group_by(self, relation):
        groups = relation.group_by("gender")
        assert set(groups) == {0, 1}
        assert len(groups[0]) == 4
        assert len(groups[1]) == 2

    def test_vectorize_counts(self, relation):
        x = relation.vectorize()
        assert x.shape == (40,)
        assert x.sum() == 6
        # Record [1, 0, 2] appears exactly once; [0, 0, 3] never.
        assert x[np.ravel_multi_index((1, 0, 2), (4, 2, 5))] == 1
        assert x[np.ravel_multi_index((0, 0, 3), (4, 2, 5))] == 0

    def test_vectorize_empty(self, schema):
        empty = Relation(schema, np.empty((0, 3), dtype=np.int64))
        assert np.all(empty.vectorize() == 0)

    def test_projection_vector(self, relation):
        hist = relation.projection_vector(["gender"])
        assert np.array_equal(hist, [4, 2])

    def test_from_histogram_round_trip(self, schema):
        rng = np.random.default_rng(0)
        hist = rng.integers(0, 3, size=schema.domain_size).astype(float)
        rel = Relation.from_histogram(schema, hist)
        assert np.array_equal(rel.vectorize(), hist)

    def test_from_histogram_rejects_negative(self, schema):
        hist = np.zeros(schema.domain_size)
        hist[0] = -1
        with pytest.raises(ValueError):
            Relation.from_histogram(schema, hist)

    def test_from_columns_mismatched_length(self, schema):
        with pytest.raises(ValueError):
            Relation.from_columns(
                schema,
                {"age": np.array([0]), "gender": np.array([0, 1]), "income": np.array([0])},
            )


class TestStabilityConstants:
    def test_documented_stabilities(self):
        assert STABILITY["where"] == 1
        assert STABILITY["select"] == 1
        assert STABILITY["split_by_partition"] == 1
        assert STABILITY["group_by"] == 2
        assert STABILITY["vectorize"] == 1
