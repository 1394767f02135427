"""The one algorithm registry: a name is one configuration.

The matrix ``algorithm:`` axis and the paper drivers use the paper's
abbreviations (:data:`PAPER_ALGORITHMS`); the ``repro`` CLI and the
differential fuzzer use the lower-case names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

from repro.algorithms.adsorption import Adsorption
from repro.algorithms.belief_propagation import BeliefPropagation
from repro.algorithms.centrality import (
    KatzCentrality,
    PersonalizedPageRank,
    WeightedPageRank,
)
from repro.algorithms.coem import CoEM
from repro.algorithms.collaborative_filtering import CollaborativeFiltering
from repro.algorithms.label_propagation import LabelPropagation
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import BFS, ConnectedComponents, SSSP, SSWP
from repro.core.model import IncrementalAlgorithm
from repro.ligra.delta import ITERATION_CAP

__all__ = ["AlgorithmSpec", "PAPER_ALGORITHMS", "REGISTRY"]


@dataclass(frozen=True, eq=False)
class AlgorithmSpec:
    """One named algorithm configuration and how the oracle runs it.

    ``params`` are the constructor arguments; :meth:`factory` is a
    zero-argument callable returning a fresh instance.  Path-style
    fixpoint algorithms run to convergence (``num_iterations`` is
    :data:`~repro.ligra.delta.ITERATION_CAP`); ``vector`` marks
    multi-component vertex values.  ``kickstarter`` selects the
    KickStarter mode (``"weighted"`` or ``"unit"``) and ``dataflow`` the
    mini differential-dataflow program (``"sssp"`` or ``"cc"``); ``None``
    disables the comparator.  ``tolerance`` is the oracle's comparison
    tolerance, not the algorithm's own (that one is in ``params``).
    """

    name: str
    cls: Type[IncrementalAlgorithm]
    params: Dict[str, object] = field(default_factory=dict)
    vector: bool = False
    kickstarter: Optional[str] = None
    dataflow: Optional[str] = None
    num_iterations: int = 8
    tolerance: float = 1e-6

    def factory(self) -> IncrementalAlgorithm:
        return self.cls(**self.params)


#: The paper's Table 4 abbreviations, in the paper's order.
PAPER_ALGORITHMS: Tuple[str, ...] = ("PR", "BP", "CF", "CoEM", "LP")

REGISTRY: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        # Paper tables: tolerances and seed densities chosen so the
        # value-stabilisation profile matches the paper's Figure 4 --
        # most vertices stop changing midway through the 10-iteration
        # window -- while results stay accurate to ~1e-3, validated
        # against from-scratch execution for every run, like the
        # paper's own methodology (section 5.1).
        AlgorithmSpec("PR", PageRank, dict(tolerance=1e-3)),
        AlgorithmSpec("BP", BeliefPropagation,
                      dict(num_states=2, tolerance=1e-4)),
        AlgorithmSpec("CF", CollaborativeFiltering,
                      dict(num_factors=3, tolerance=1e-4)),
        AlgorithmSpec("CoEM", CoEM, dict(seed_every=3, tolerance=1e-3)),
        AlgorithmSpec("LP", LabelPropagation,
                      dict(num_labels=3, seed_every=3, tolerance=1e-3)),
        # CLI names; the fuzz roster's entries carry the oracle fields.
        AlgorithmSpec("pagerank", PageRank, dict(tolerance=1e-9)),
        AlgorithmSpec("weighted-pagerank", WeightedPageRank,
                      dict(tolerance=1e-9)),
        AlgorithmSpec("personalized-pagerank", PersonalizedPageRank,
                      dict(tolerance=1e-9)),
        AlgorithmSpec("katz", KatzCentrality, dict(tolerance=1e-9)),
        AlgorithmSpec("label-propagation", LabelPropagation,
                      dict(num_labels=3, seed_every=4, tolerance=1e-9),
                      vector=True),
        AlgorithmSpec("adsorption", Adsorption, dict(tolerance=1e-9)),
        AlgorithmSpec("coem", CoEM, dict(seed_every=4, tolerance=1e-9)),
        AlgorithmSpec("belief-propagation", BeliefPropagation,
                      dict(tolerance=1e-9)),
        AlgorithmSpec("collaborative-filtering", CollaborativeFiltering,
                      dict(tolerance=1e-9)),
        AlgorithmSpec("sssp", SSSP, dict(source=0),
                      kickstarter="weighted", dataflow="sssp",
                      num_iterations=ITERATION_CAP, tolerance=1e-9),
        AlgorithmSpec("sswp", SSWP, dict(source=0)),
        AlgorithmSpec("bfs", BFS, dict(source=0), kickstarter="unit",
                      num_iterations=ITERATION_CAP, tolerance=1e-9),
        # Directed min-label propagation; the symmetrising dataflow WCC
        # computes a different fixpoint, so no dataflow check.
        AlgorithmSpec("connected-components", ConnectedComponents,
                      num_iterations=ITERATION_CAP, tolerance=1e-9),
    ]
}
