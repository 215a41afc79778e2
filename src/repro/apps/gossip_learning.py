"""Gossip learning over the token account service (§2.2, §3.2, §4.1.1).

Models perform random walks through the network; every visited node
applies one SGD step on its single local example and increments the
model's **age** (the number of nodes visited). The paper's evaluation
"did not implement any actual machine learning tasks, but just simulated
the age of the models as this forms the basis of our performance metric";
we do the same by default, and optionally carry a real
:class:`~repro.apps.sgd.LinearRegressionModel` to demonstrate the full
pipeline.

Framework semantics (§3.2):

* ``createMessage`` copies the current state — the walking model token.
* ``updateState(m)`` — "usefulness is 0 if the current model of the node
  is older (in terms of the number of visited nodes) than the received
  model, and 1 otherwise. In the former case, the state is unchanged,
  while in the latter case, the received model is trained on the local
  data and stored as the new state." Training increments the age. Keeping
  only the older walk is the mechanism behind the emergent "evolutionary
  process in which random walks fight for bandwidth" (§4.2).

Metric (eq. 6): the mean over nodes of ``n_i(t) / n*(t)`` where
``n_i(t)`` is the age of the model held by node ``i`` and
``n*(t) = t / transfer_time`` is the age of an ideal never-delayed "hot
potato" walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.apps.sgd import Example, LinearRegressionModel
from repro.core.api import Application
from repro.core.grading import saturating_grade
from repro.core.protocol import TokenAccountNode
from repro.registry import ApplicationPlugin, BuildContext, ParamSpec, applications


@dataclass(frozen=True)
class ModelToken:
    """The walking state: a model identified by lineage, with an age.

    Attributes
    ----------
    age:
        Number of nodes the model has visited (SGD steps applied).
    lineage:
        Id of the node whose ``initModel()`` created this walk; purely
        diagnostic (it lets experiments count surviving walks, §4.2).
    weights:
        Optional real model weights (the age-only evaluation leaves this
        ``None``, exactly like the paper's simulations).
    """

    age: int
    lineage: int
    weights: Optional[Tuple[float, ...]] = None


class GossipLearningApp(Application):
    """Per-node gossip learning logic for the token account framework.

    Parameters
    ----------
    example:
        The node's single local training example ``(x, y)``, or ``None``
        for the age-only simulation used in the paper's evaluation.
    learning_rate:
        SGD step size when a real model is carried.
    always_adopt:
        If ``True``, reproduce classic Algorithm 1 exactly: every
        received model is trained and stored, with no age comparison.
        Only meaningful under the purely proactive baseline (Algorithm 1
        predates the usefulness notion); the framework evaluation keeps
        the default ``False``.
    """

    def __init__(
        self,
        example: Optional[Example] = None,
        learning_rate: float = 0.05,
        always_adopt: bool = False,
        grading_scale: Optional[float] = None,
    ):
        super().__init__()
        self.example = example
        self.learning_rate = learning_rate
        self.always_adopt = always_adopt
        self.grading_scale = grading_scale
        self.age = 0
        self.lineage: Optional[int] = None
        self.model: Optional[LinearRegressionModel] = None
        self.adopted = 0
        self.discarded = 0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """``initModel()``: a fresh age-0 model rooted at this node."""
        assert self.node is not None
        if self.lineage is None:
            self.lineage = self.node.node_id
            if self.example is not None:
                dimension = len(self.example[0])
                self.model = LinearRegressionModel(dimension)

    # ------------------------------------------------------------------
    # The paper's two methods
    # ------------------------------------------------------------------
    def create_message(self) -> ModelToken:
        weights = self.model.to_payload() if self.model is not None else None
        return ModelToken(self.age, self.lineage or 0, weights)

    def update_state(self, payload: ModelToken, sender: int):
        useful = self.always_adopt or payload.age >= self.age
        if not useful:
            self.discarded += 1
            return False
        # Train the received model on the local example and adopt it.
        age_gain = payload.age + 1 - self.age
        self.age = payload.age + 1
        self.lineage = payload.lineage
        if self.example is not None and payload.weights is not None:
            model = LinearRegressionModel.from_payload(
                payload.weights, len(self.example[0])
            )
            model.sgd_step(self.example[0], self.example[1], self.learning_rate)
            self.model = model
        self.adopted += 1
        if self.grading_scale is not None:
            # Graded usefulness (§3.1 future work): a model far older
            # than the local one is worth proportionally more tokens.
            return saturating_grade(age_gain, self.grading_scale)
        return True


class GossipLearningMetric:
    """Metric eq. (6): mean relative walk speed over online nodes.

    ``metric(t) = (1 / (N·n*(t))) · Σ_i n_i(t)`` with
    ``n*(t) = t / transfer_time``. A value of 1 means every node holds a
    model as old as the ideal hot-potato walk; the purely proactive
    protocol hovers around ``transfer_time / Δ`` (0.01 in the paper's
    setup). Undefined (``None``) at ``t = 0``.
    """

    def __init__(self, nodes: Sequence[TokenAccountNode], transfer_time: float):
        if transfer_time <= 0:
            raise ValueError(f"transfer_time must be positive, got {transfer_time}")
        self.nodes = nodes
        self.transfer_time = transfer_time

    def __call__(self, now: float) -> Optional[float]:
        if now <= 0:
            return None
        ideal_age = now / self.transfer_time
        ages = [
            node.app.age for node in self.nodes if node.online  # type: ignore[attr-defined]
        ]
        if not ages:
            return None
        return sum(ages) / (len(ages) * ideal_age)

    def surviving_lineages(self) -> int:
        """Number of distinct walks still held by online nodes (§4.2)."""
        lineages = {
            node.app.lineage  # type: ignore[attr-defined]
            for node in self.nodes
            if node.online
        }
        lineages.discard(None)
        return len(lineages)


@applications.register(
    "gossip-learning",
    summary="random-walk model gossip aged by SGD steps (§2.2); metric eq. (6)",
    params=(
        ParamSpec(
            "grading_scale",
            "float",
            default=None,
            help="graded usefulness saturation (None = boolean usefulness)",
        ),
    ),
)
class GossipLearningPlugin(ApplicationPlugin):
    """Registry assembly hooks for gossip learning."""

    name = "gossip-learning"
    default_overlay = "kout"
    supports_churn = True
    higher_is_better = True  # eq. 6 is a relative speed

    def __init__(self, grading_scale: Optional[float] = None):
        self.grading_scale = grading_scale

    def build_apps(self, ctx: BuildContext) -> list:
        return [
            GossipLearningApp(grading_scale=self.grading_scale)
            for _ in range(ctx.spec.n)
        ]

    def build_metric(self, ctx: BuildContext, nodes, workload) -> GossipLearningMetric:
        return GossipLearningMetric(nodes, ctx.spec.network.transfer_time)

    def result_extras(self, ctx: BuildContext, metric) -> dict:
        return {"surviving_walks": metric.surviving_lineages()}
