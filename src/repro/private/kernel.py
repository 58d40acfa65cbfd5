"""The protected kernel (Sec. 4).

The kernel is the only component that touches private data.  It maintains:

* the data-source environment (variable name → table or vector),
* the transformation graph with per-edge stability,
* the per-source budget consumption (via :class:`~repro.private.budget.BudgetTracker`),
* the query history (every measurement actually answered).

Client code (plans, operators) never receives the private data.  It holds
:class:`~repro.private.protected.ProtectedDataSource` handles and interacts
with the kernel through:

* *Private* requests — transformations, which return new handles,
* *Private→Public* requests — measurements (Laplace queries, exponential-
  mechanism selections), which spend budget and return noisy answers,
* *Public* metadata — schema and domain sizes, which are data-independent.

Each operator class has one path.  Every transformation registers its
result through ``_derive`` (the derived source and its stability; the two
SplitByPartitions add their partition node through ``_split``).  Every
measurement runs through ``_measure`` in one order: validate ε, compute the
public sensitivity, noise scale and cost, charge the budget, then draw the
noise and record the history row.  No private data is read and no noise is
drawn before the charge is accepted.
The kernel holds no service state: no request clock, and no durability (a
journaled session reads its new history rows at each commit,
:meth:`repro.service.session.Session.commit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..accounting.base import Accountant, Cost
from ..accounting.accountants import PureDPAccountant
from ..dataset.relation import STABILITY, Relation
from ..matrix import LinearQueryMatrix, ReductionMatrix, ensure_matrix
from ..telemetry.spans import trace_span
from .budget import BudgetTracker
from .exceptions import (
    BudgetExceededError,
    InvalidTransformationError,
    UnknownSourceError,
)


def _sensitivity(queries: LinearQueryMatrix, norm: str) -> float:
    """``queries.sensitivity()`` or ``.sensitivity_l2()`` (``norm``), computed
    from the matrix once per matrix object, as its strategy key is: a cached
    public strategy is measured again on every request."""
    computed = queries.__dict__.setdefault("_sensitivity_cache", {})
    if norm not in computed:
        computed[norm] = getattr(queries, norm)()
    return computed[norm]


@dataclass
class MeasurementRecord:
    """One entry of the kernel's query history.

    ``epsilon`` is the mechanism's pure-DP parameter (or the ε of a Gaussian
    measurement's ``(ε, δ)`` target); ``cost`` is what the accountant
    actually charged at the measured source in its *native* units (equal to
    ``epsilon`` under pure accounting, e.g. ``ε²/2`` under zCDP), and
    ``delta`` is the measurement's δ: the accountant's ``default_delta`` for
    a Gaussian, 0 for δ-free mechanisms.
    """

    source: str
    operator: str
    epsilon: float
    noise_scale: float
    num_queries: int
    delta: float = 0.0
    cost: float = 0.0


@dataclass(frozen=True)
class BudgetSnapshot:
    """Point-in-time view of the kernel's budget and history counters.

    Used by the service layer to bracket a plan execution: the difference of
    two snapshots gives the budget spent and the history records produced by
    exactly that execution, even when other plans ran before it.
    """

    epsilon_total: float
    consumed: float
    remaining: float
    num_measurements: int
    #: root-charge ledger length — brackets of two snapshots identify the
    #: exact charges one execution made (see ``budget_charged_between``).
    num_charges: int = 0


@dataclass
class _Source:
    """Internal storage of a data source (table or vector)."""

    data: object  # Relation | np.ndarray | None (partition dummy)
    kind: str  # "table" | "vector" | "partition"


class ProtectedKernel:
    """Holds the private data and enforces differential privacy for any plan."""

    def __init__(
        self,
        table: Relation,
        epsilon_total: float | None = None,
        seed: int | None = None,
        accountant: Accountant | None = None,
    ):
        """Wrap ``table`` in a kernel enforcing the accountant's calculus.

        ``accountant=None`` (the default) gives the paper's pure ε-DP
        semantics over ``epsilon_total``; passing an
        :class:`~repro.accounting.Accountant` swaps the privacy calculus
        (budget totals, mechanism costs, composition) while the operator
        surface stays identical.  When an accountant is supplied it carries
        its own budget and ``epsilon_total`` is ignored.
        """
        if accountant is None:
            accountant = PureDPAccountant(epsilon_total)
        self._accountant = accountant
        self._budget = BudgetTracker(accountant=accountant)
        self._sources: dict[str, _Source] = {"root": _Source(table, "table")}
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._history: list[MeasurementRecord] = []
        self._name_counter = 0
        #: fault-injection seams (``kernel.before_charge`` /
        #: ``kernel.after_charge``); None in production — one attribute check
        #: per measurement.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # Bookkeeping helpers.
    # ------------------------------------------------------------------
    def _fresh_name(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}_{self._name_counter}"

    def restore_measurement(self, record: MeasurementRecord) -> None:
        """Append a history row replayed from durable records.

        A restored kernel holds the root alone, so the name counter moves
        past the ``_N`` suffix of the row's source: :meth:`_fresh_name`
        never hands a pre-restore name to a post-restore source.
        """
        _, _, suffix = record.source.rpartition("_")
        if suffix.isdigit():
            self._name_counter = max(self._name_counter, int(suffix))
        self._history.append(record)

    def _get(self, name: str) -> _Source:
        if name not in self._sources:
            raise UnknownSourceError(f"unknown data-source variable {name!r}")
        return self._sources[name]

    def _data(self, name: str, kind: str, operator: LinearQueryMatrix | None = None):
        """The data of source ``name``, which must be a ``kind``.

        ``operator`` (a vector operator's matrix) must have one column per
        cell of the vector.
        """
        source = self._get(name)
        if source.kind != kind:
            raise InvalidTransformationError(f"source {name!r} is not a {kind}")
        if operator is not None and operator.shape[1] != source.data.size:
            raise InvalidTransformationError(
                f"operator has {operator.shape[1]} columns but the vector has "
                f"{source.data.size} cells"
            )
        return source.data

    # ------------------------------------------------------------------
    # Public (non-private) metadata.
    # ------------------------------------------------------------------
    @property
    def epsilon_total(self) -> float:
        """Total budget in the accountant's native units (ε, or ρ for zCDP)."""
        return self._budget.epsilon_total

    @property
    def accountant(self) -> Accountant:
        """The privacy calculus this kernel charges against."""
        return self._accountant

    @property
    def budget_tracker(self) -> BudgetTracker:
        """The lineage ledger (public counters only; audits, commits and restores use it)."""
        return self._budget

    def budget_consumed(self) -> float:
        """Total budget consumed so far (at the root, native units)."""
        return self._budget.consumed()

    def budget_remaining(self) -> float:
        return self._budget.remaining()

    def budget_spent_cost(self) -> Cost:
        """Root-level spend as a full cost vector (primary + δ components)."""
        return self._budget.spent()

    def accounting_report(self) -> dict:
        """JSON-ready spend summary in native units and converted ``(ε, δ)``."""
        return self._accountant.report(
            self._budget.spent(), self._budget.remaining_cost()
        )

    @property
    def seed(self) -> int | None:
        """Seed of the noise generator (set at construction or via :meth:`reseed`)."""
        return self._seed

    def reseed(self, seed: int | None) -> None:
        """Reset the noise generator to a known seed.

        This is a service-layer hook for reproducible responses: the scheduler
        derives a distinct seed per request and reseeds before executing the
        plan, so the same request always yields the same noisy answer.  Never
        reseed with the same value before *different* measurements — replaying
        noise across distinct queries voids the privacy guarantee.
        """
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def history(self) -> list[MeasurementRecord]:
        """A copy of the measurement history (public: contains no raw data)."""
        return list(self._history)

    @property
    def num_measurements(self) -> int:
        """Number of measurements answered (the history's length)."""
        return len(self._history)

    def history_query(self, since: int = 0) -> list[MeasurementRecord]:
        """The measurement history's records from index ``since`` on (pair it
        with :meth:`budget_snapshot` to isolate one plan execution)."""
        return self._history[since:]

    def budget_snapshot(self) -> BudgetSnapshot:
        """Atomic view of the budget counters and history length."""
        return BudgetSnapshot(
            epsilon_total=self._budget.epsilon_total,
            consumed=self._budget.consumed(),
            remaining=self._budget.remaining(),
            num_measurements=len(self._history),
            num_charges=self._budget.num_charges,
        )

    def budget_charged_between(
        self, before: BudgetSnapshot, after: BudgetSnapshot | None = None
    ) -> float:
        """Primary spend of exactly the charges between two snapshots.

        Summed from the bracketed ledger slice itself (``math.fsum``), not as
        a difference of running totals — so the value is identical however
        concurrent executions interleaved around the bracket, which is what
        lets every executor backend report byte-identical per-request spend.
        ``after=None`` means "up to now".
        """
        stop = after.num_charges if after is not None else self._budget.num_charges
        return self._budget.charged_between(before.num_charges, stop)

    def source_kind(self, name: str) -> str:
        return self._get(name).kind

    def domain_size(self, name: str) -> int:
        """Length of a vector source / vectorised domain size of a table source."""
        source = self._get(name)
        if source.kind == "vector":
            return int(source.data.size)
        if source.kind == "table":
            return source.data.domain_size
        raise InvalidTransformationError("partition dummy sources have no domain size")

    # ------------------------------------------------------------------
    # Private operators: transformations.
    # ------------------------------------------------------------------
    def _derive(self, prefix: str, parent: str, data, kind: str, stability: float) -> str:
        """Register ``data`` as a new source derived from ``parent``.

        Every transformation ends here: the new variable joins the
        environment and the budget graph with its transformation's stability.
        """
        new = self._fresh_name(prefix)
        self._sources[new] = _Source(data, kind)
        self._budget.add_derived(new, parent, stability)
        return new

    def _split(self, prefix: str, parent: str, kind: str, pieces) -> tuple[str, list[str]]:
        """SplitByPartition: a partition dummy node over 1-stable children.

        ``pieces`` yields ``(name prefix, data)`` per disjoint piece; the
        children compose in parallel (Algorithm 2, partition case).
        """
        dummy = self._fresh_name(prefix)
        self._sources[dummy] = _Source(None, "partition")
        self._budget.add_partition(dummy, parent)
        return dummy, [self._derive(child, dummy, data, kind, 1.0) for child, data in pieces]

    def transform_where(self, name: str, predicate) -> str:
        """Filter records (1-stable)."""
        table = self._data(name, "table")
        with trace_span(
            "kernel.transform.where", source=name, stability=STABILITY["where"]
        ):
            return self._derive(
                "where", name, table.where(predicate), "table", STABILITY["where"]
            )

    def transform_select(self, name: str, attributes: Sequence[str]) -> str:
        """Project onto a subset of attributes (1-stable)."""
        table = self._data(name, "table")
        with trace_span(
            "kernel.transform.select", source=name, stability=STABILITY["select"]
        ):
            return self._derive(
                "select", name, table.select(attributes), "table", STABILITY["select"]
            )

    def transform_vectorize(self, name: str) -> str:
        """T-Vectorize: turn a table into its histogram vector (1-stable)."""
        table = self._data(name, "table")
        with trace_span(
            "kernel.transform.vectorize",
            source=name,
            stability=STABILITY["vectorize"],
            domain_size=int(table.domain_size),
        ):
            return self._derive(
                "vector", name, table.vectorize(), "vector", STABILITY["vectorize"]
            )

    def transform_group_by(self, name: str, attribute: str) -> dict[int, str]:
        """GroupBy an attribute (2-stable); returns value → new source variable."""
        table = self._data(name, "table")
        return {
            value: self._derive(
                f"group_{attribute}", name, group, "table", STABILITY["group_by"]
            )
            for value, group in table.group_by(attribute).items()
        }

    def transform_table_split(self, name: str, attribute: str) -> tuple[str, dict[int, str]]:
        """SplitByPartition on a table keyed by an attribute's value (1-stable)."""
        groups = self._data(name, "table").group_by(attribute)
        dummy, children = self._split(
            "tpartition",
            name,
            "table",
            ((f"tsplit_{attribute}_{value}", group) for value, group in groups.items()),
        )
        return dummy, dict(zip(groups, children))

    def transform_reduce_by_partition(self, name: str, partition: ReductionMatrix) -> str:
        """V-ReduceByPartition: ``x' = P x`` (1-stable)."""
        vector = self._data(name, "vector", partition)
        stability = partition.sensitivity()
        with trace_span(
            "kernel.transform.reduce_by_partition",
            source=name,
            input_size=int(vector.size),
            output_size=int(partition.shape[0]),
            stability=float(stability),
        ):
            return self._derive(
                "reduce", name, partition.reduce_vector(vector), "vector", stability
            )

    def transform_linear(self, name: str, matrix: LinearQueryMatrix) -> str:
        """Generic linear vector transformation ``x' = M x``.

        Stability equals the maximum L1 column norm of ``M`` (Sec. 5.1).
        """
        matrix = ensure_matrix(matrix)
        vector = self._data(name, "vector", matrix)
        stability = matrix.sensitivity()
        with trace_span(
            "kernel.transform.linear",
            source=name,
            input_size=int(vector.size),
            output_size=int(matrix.shape[0]),
            stability=float(stability),
        ):
            return self._derive("linear", name, matrix.matvec(vector), "vector", stability)

    def transform_split_by_partition(
        self, name: str, partition: ReductionMatrix
    ) -> tuple[str, list[str]]:
        """V-SplitByPartition: split a vector into disjoint pieces (1-stable).

        Returns the dummy partition variable and one child variable per group,
        enabling parallel composition across the children.
        """
        vector = self._data(name, "vector", partition)
        with trace_span(
            "kernel.transform.split_by_partition",
            source=name,
            input_size=int(vector.size),
            num_groups=int(partition.shape[0]),
        ):
            return self._split(
                "partition",
                name,
                "vector",
                ((f"split{g}", vector[idx]) for g, idx in enumerate(partition.split_indices())),
            )

    # ------------------------------------------------------------------
    # Private -> Public operators: measurements.
    # ------------------------------------------------------------------
    def _measure(
        self,
        operator: str,
        name: str,
        epsilon: float,
        calibrate: Callable[[], tuple[float, Cost, dict]],
        draw: Callable[[float], object],
        span: str,
        attributes: dict,
        num_queries: int = 1,
        delta: float = 0.0,
    ):
        """Run one Private→Public operator in the kernel's one fixed order.

        1. validate ε;
        2. ``calibrate()`` the public noise scale, cost and the sensitivity
           attributes of the span;
        3. fire ``kernel.before_charge``;
        4. charge the budget and fire ``kernel.after_charge``;
        5. ``draw(scale)`` the noisy answer, then record the history row.

        Only step 5 reads the private data.  A refused or failed charge
        spends nothing and draws nothing; a crash between steps 4 and 5
        wastes the charge but releases and records nothing.
        """
        with trace_span(span, source=name, epsilon=float(epsilon), **attributes) as handle:
            if not 0 < epsilon < math.inf:  # NaN fails every comparison
                raise ValueError(
                    "the privacy parameter of a measurement must be positive and finite"
                )
            scale, cost, public = calibrate()
            if self.fault_injector is not None:
                self.fault_injector.fire("kernel.before_charge", name, epsilon)
            if not self._budget.charge(name, cost):
                raise BudgetExceededError(cost.primary, self._budget.remaining())
            if self.fault_injector is not None:
                # The crash window after the charge: budget charged, noisy
                # answer not yet computed or released.
                self.fault_injector.fire("kernel.after_charge", name, epsilon)
            handle.set_attributes(cost=float(cost.primary), **public, noise_scale=float(scale))
            answer = draw(scale)
            record = MeasurementRecord(
                name, operator, epsilon, scale, num_queries, delta=delta, cost=cost.primary
            )
            self._history.append(record)
            return answer

    def measure_vector_laplace(
        self, name: str, queries: LinearQueryMatrix, epsilon: float
    ) -> np.ndarray:
        """Vector Laplace: noisy answers ``M x + (sensitivity(M)/eps) * Lap(1)^m``.

        The sensitivity is computed automatically from the query matrix,
        once per matrix object; the budget charged on the source is
        ``epsilon`` and the kernel's budget tracker converts it to root-level
        cost through the lineage stabilities.
        """
        queries = ensure_matrix(queries)
        vector = self._data(name, "vector", queries)
        m = queries.shape[0]

        def calibrate():
            sensitivity = _sensitivity(queries, "sensitivity")
            cost = self._accountant.laplace_cost(epsilon)
            return sensitivity / epsilon, cost, {"sensitivity": float(sensitivity)}

        return self._measure(
            "VectorLaplace",
            name,
            epsilon,
            calibrate,
            lambda scale: queries.matvec(vector) + self._rng.laplace(0.0, scale, size=m),
            "kernel.measure.laplace",
            {"num_queries": int(m), "domain_size": int(vector.size)},
            num_queries=m,
        )

    def measure_vector_gaussian(
        self, name: str, queries: LinearQueryMatrix, epsilon: float
    ) -> np.ndarray:
        """Vector Gaussian: noisy answers ``M x + N(0, σ²)^m``.

        The noise is calibrated to the matrix's **L2** sensitivity and the
        ``(ε, δ)`` target, whose δ is always the accountant's
        :attr:`~repro.accounting.Accountant.default_delta`: the kernel, not
        plan code, sets δ.  σ and the charged cost both come from the
        kernel's accountant, so the same call is the analytic Gaussian
        mechanism under ``(ε, δ)`` accounting and the tighter
        ``σ = Δ₂/sqrt(2ρ)`` calibration under zCDP.  Unsupported (raises
        :class:`~repro.private.exceptions.UnsupportedMechanismError`) under
        pure ε-DP, which the Gaussian mechanism cannot satisfy.
        """
        queries = ensure_matrix(queries)
        vector = self._data(name, "vector", queries)
        m = queries.shape[0]
        delta = self._accountant.default_delta

        def calibrate():
            sensitivity = _sensitivity(queries, "sensitivity_l2")
            sigma, cost = self._accountant.gaussian_mechanism(sensitivity, epsilon, delta)
            return sigma, cost, {"sensitivity_l2": float(sensitivity)}

        return self._measure(
            "VectorGaussian",
            name,
            epsilon,
            calibrate,
            lambda sigma: queries.matvec(vector) + self._rng.normal(0.0, sigma, size=m),
            "kernel.measure.gaussian",
            {"delta": float(delta), "num_queries": int(m), "domain_size": int(vector.size)},
            num_queries=m,
            delta=float(delta),
        )

    def measure_noisy_count(self, name: str, epsilon: float) -> float:
        """NoisyCount on a table source: ``|D| + Lap(1/eps)``."""
        table = self._data(name, "table")
        return self._measure(
            "NoisyCount",
            name,
            epsilon,
            lambda: (1.0 / epsilon, self._accountant.laplace_cost(epsilon), {}),
            lambda scale: float(len(table) + self._rng.laplace(0.0, scale)),
            "kernel.measure.noisy_count",
            {},
        )

    def select_exponential_mechanism(
        self,
        name: str,
        scores: Callable[[np.ndarray], np.ndarray],
        num_candidates: int,
        epsilon: float,
        score_sensitivity: float,
    ) -> int:
        """Exponential mechanism over ``num_candidates`` options.

        ``scores(x)`` maps the private vector to a score per candidate (higher
        is better).  Used by the MWEM worst-approximated query selection and by
        PrivBayes network selection.  The recorded noise scale is the
        mechanism's temperature ``2·Δu/ε``, on which the scores are perturbed.
        """
        vector = self._data(name, "vector")

        def choose(_scale: float) -> int:
            utility = np.asarray(scores(vector), dtype=np.float64)
            if utility.shape != (num_candidates,):
                raise ValueError("score function returned the wrong number of candidates")
            logits = epsilon * utility / (2.0 * score_sensitivity)
            logits -= logits.max()
            probabilities = np.exp(logits)
            probabilities /= probabilities.sum()
            return int(self._rng.choice(num_candidates, p=probabilities))

        return self._measure(
            "ExponentialMechanism",
            name,
            epsilon,
            lambda: (
                2.0 * score_sensitivity / epsilon,
                self._accountant.exponential_cost(epsilon),
                {},
            ),
            choose,
            "kernel.select.exponential",
            {"num_candidates": int(num_candidates), "domain_size": int(vector.size)},
        )

    # ------------------------------------------------------------------
    # Lineage introspection (public).
    # ------------------------------------------------------------------
    def lineage(self, name: str) -> list[str]:
        return self._budget.lineage(name)

    def cumulative_stability(self, name: str) -> float:
        return self._budget.cumulative_stability(name)

    def source_consumed(self, name: str) -> float:
        return self._budget.consumed(name)
