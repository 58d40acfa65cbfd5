"""repro — a reproduction of EKTELO (SIGMOD 2018).

EKTELO is a programming framework for differentially-private computations over
linear counting queries.  Algorithms are *plans*: client-side compositions of
vetted operators (transformations, measurements, query selection, partition
selection, inference) executed against a *protected kernel* that holds the
private data, tracks transformation stability, and enforces the global privacy
budget.

Typical usage::

    from repro import protect, Identity
    from repro.dataset import small_census
    from repro.plans import DawaPlan

    source = protect(small_census(), epsilon_total=1.0, seed=0).vectorize()
    result = DawaPlan().run(source, epsilon=1.0)
    histogram_estimate = result.x_hat

Subpackages
-----------
``repro.matrix``    implicit linear-query matrices (Sec. 7)
``repro.dataset``   relations, schemas, table transformations, synthetic data
``repro.private``   protected kernel, stability and budget accounting (Sec. 4)
``repro.accounting`` pluggable privacy accountants: pure ε, (ε, δ), ρ-zCDP
``repro.operators`` the operator library (Sec. 5)
``repro.plans``     the plan library (Fig. 2 + case studies, Secs. 6 and 9)
``repro.workload``  workload builders (with named registry + cache keys)
``repro.service``   multi-tenant query service: sessions, scheduling, caching
``repro.analysis``  error metrics, Naive Bayes / AUC utilities, harness helpers
"""

from .dataset import Attribute, Relation, Schema
from .matrix import (
    HaarWavelet,
    HierarchicalQueries,
    Identity,
    Kronecker,
    LinearQueryMatrix,
    Ones,
    Prefix,
    Product,
    RangeQueries,
    ReductionMatrix,
    Suffix,
    Total,
    VStack,
)
from .accounting import (
    Accountant,
    ApproxDPAccountant,
    PureDPAccountant,
    ZCDPAccountant,
    make_accountant,
)
from .private import BudgetExceededError, ProtectedDataSource, ProtectedKernel, protect

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Attribute",
    "Schema",
    "Relation",
    "LinearQueryMatrix",
    "Identity",
    "Ones",
    "Total",
    "Prefix",
    "Suffix",
    "HaarWavelet",
    "VStack",
    "Product",
    "Kronecker",
    "RangeQueries",
    "HierarchicalQueries",
    "ReductionMatrix",
    "protect",
    "ProtectedDataSource",
    "ProtectedKernel",
    "BudgetExceededError",
    "Accountant",
    "PureDPAccountant",
    "ApproxDPAccountant",
    "ZCDPAccountant",
    "make_accountant",
]
