"""Protected kernel, budget accounting and client handles (EKTELO Sec. 4)."""

from .audit import BudgetAudit, SourceReport, audit, audit_kernel
from .budget import BudgetNode, BudgetTracker, NodeKind
from .exceptions import (
    BudgetExceededError,
    InvalidTransformationError,
    PrivacyError,
    UnknownSourceError,
    UnsupportedMechanismError,
)
from .kernel import BudgetSnapshot, MeasurementRecord, ProtectedKernel
from .protected import ProtectedDataSource, protect

__all__ = [
    "BudgetSnapshot",
    "BudgetAudit",
    "SourceReport",
    "audit",
    "audit_kernel",
    "BudgetTracker",
    "BudgetNode",
    "NodeKind",
    "ProtectedKernel",
    "MeasurementRecord",
    "ProtectedDataSource",
    "protect",
    "PrivacyError",
    "BudgetExceededError",
    "UnknownSourceError",
    "InvalidTransformationError",
    "UnsupportedMechanismError",
]
