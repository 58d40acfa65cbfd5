"""MWEM variants obtained by recombining operators (Sec. 9.1, plans #18-#20).

The three variants modify the original MWEM plan (#7) along two axes:

* **variant b** (#18) — augmented query selection: each round's selected query
  is padded with disjoint interval queries that cost no extra budget under
  parallel composition, gradually building a binary hierarchy;
* **variant c** (#19) — alternative inference: non-negative least squares with
  a high-confidence total replaces the multiplicative-weights update;
* **variant d** (#20) — both changes together, which the paper reports as the
  sweet spot (large error improvement at a fraction of variant b's runtime).

Each variant is :class:`~repro.plans.data_dependent.MwemPlan` with one or both
of its operator switches (``augment_selection``, ``use_nnls``) turned on, so
all four plans run the same loop and take the same parameters.
"""

from __future__ import annotations

from .data_dependent import MwemPlan


class MwemVariantB(MwemPlan):
    """Plan #18 — worst-approx + H2-style augmentation, multiplicative weights."""

    name = "MWEM variant b"
    signature = "I:( SW SH2 LM MW )"
    plan_id = 18
    augment_selection = True
    use_nnls = False


class MwemVariantC(MwemPlan):
    """Plan #19 — original selection, NNLS inference with a known total."""

    name = "MWEM variant c"
    signature = "I:( SW LM NLS )"
    plan_id = 19
    augment_selection = False
    use_nnls = True


class MwemVariantD(MwemPlan):
    """Plan #20 — augmented selection and NNLS inference together."""

    name = "MWEM variant d"
    signature = "I:( SW SH2 LM NLS )"
    plan_id = 20
    augment_selection = True
    use_nnls = True
