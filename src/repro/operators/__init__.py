"""Operator library: selection, partition and inference.

Transformations and measurements are not here: they are the protected
kernel's privileged operators, called through
:class:`~repro.private.protected.ProtectedDataSource` handles
(``source.vectorize()``, ``source.vector_laplace(M, eps)``, ...).  This
package holds the operators that run on public data: query selection,
partition selection and inference.
"""

from . import inference, partition, selection

__all__ = [
    "inference",
    "partition",
    "selection",
]
