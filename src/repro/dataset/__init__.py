"""Relational substrate: schemas, relations, table transformations, datasets."""

from .census import CENSUS_DOMAIN, census_schema, small_census, synthetic_cps
from .credit import (
    LABEL_NAME,
    PREDICTOR_DOMAIN,
    PREDICTOR_NAMES,
    credit_schema,
    synthetic_credit_default,
)
from .dpbench import DATASETS_1D, load_1d, load_2d
from .relation import STABILITY, Relation
from .schema import Attribute, Schema

__all__ = [
    "Attribute",
    "Schema",
    "Relation",
    "STABILITY",
    "census_schema",
    "synthetic_cps",
    "small_census",
    "CENSUS_DOMAIN",
    "credit_schema",
    "synthetic_credit_default",
    "PREDICTOR_DOMAIN",
    "PREDICTOR_NAMES",
    "LABEL_NAME",
    "DATASETS_1D",
    "load_1d",
    "load_2d",
]
