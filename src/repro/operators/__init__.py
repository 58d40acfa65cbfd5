"""Operator library: selection, partition, inference, and noise-scale helpers.

Transformations and measurements are not here: they are the protected
kernel's privileged operators, called through
:class:`~repro.private.protected.ProtectedDataSource` handles
(``source.vectorize()``, ``source.vector_laplace(M, eps)``, ...).  This
package holds the operators that run on public data — query selection,
partition selection, inference — and the public noise-scale helpers plans
use to reason about a measurement before making it.
"""

from . import inference, partition, selection
from .measurement import gaussian_noise_scale, laplace_noise_scale

__all__ = [
    "inference",
    "partition",
    "selection",
    "laplace_noise_scale",
    "gaussian_noise_scale",
]
