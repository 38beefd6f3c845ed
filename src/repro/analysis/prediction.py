"""Prediction: gain-prediction quality and per-instance algorithm choice.

Two prediction problems live here.

**Move-level** (the paper's thesis): the probabilistic gain is a better
*predictor* of a move's ultimate worth than the deterministic immediate
gain.  :func:`gain_prediction_report` measures that directly: instrument
a PROP run, collect (selection gain, realized immediate gain) pairs per
move, and report how selection gains relate to what the moves actually
delivered — including the fraction of selected moves whose immediate
gain was negative but that PROP chose anyway for their future value
(Sec. 3's "the immediate gain of that move might be small or even
negative").

**Instance-level** (the portfolio selector): which algorithm should a
budget be spent on for *this* netlist?  :class:`PortfolioModel` is a
nearest-neighbour regressor over cheap structural features
(:func:`instance_features`: size, pin density, net-size and degree
shape) trained on corpus sweeps (:func:`train_portfolio`), predicting a
normalized cut per algorithm and ranking them.  Deterministic end to
end: features, distances and tie-breaks involve no randomness, so the
same model file always picks the same algorithm for the same graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from scipy import stats

from ..core import PropConfig
from ..core.engine import run_prop
from ..hypergraph import Hypergraph
from ..partition import BalanceConstraint, random_balanced_sides
from ..telemetry import MemoryRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Engine


@dataclass(frozen=True)
class MoveSample:
    """One observed move."""

    pass_index: int
    node: int
    selection_gain: float    # probabilistic gain at selection time
    immediate_gain: float    # realized cut delta


@dataclass
class PredictionReport:
    """Summary of gain-prediction quality over one PROP run."""

    samples: List[MoveSample]
    spearman_rho: Optional[float]   # rank correlation, first-pass moves
    negative_immediate_fraction: float
    mean_selection_gain: float
    mean_immediate_gain: float

    @property
    def num_moves(self) -> int:
        return len(self.samples)


def collect_move_samples(
    graph: Hypergraph,
    balance: Optional[BalanceConstraint] = None,
    config: Optional[PropConfig] = None,
    seed: int = 0,
) -> List[MoveSample]:
    """Run PROP once, capturing every tentative move it makes.

    Uses the telemetry event stream (:class:`repro.telemetry.MemoryRecorder`);
    recording never changes moves or cuts.  A pass ends at the dead-cut
    stop (:func:`repro.datastructures.pass_can_stop`), so the moves it
    would have rolled back anyway are not among the samples.
    """
    if balance is None:
        balance = BalanceConstraint.fifty_fifty(graph)
    recorder = MemoryRecorder()
    run_prop(
        graph,
        random_balanced_sides(graph, seed),
        balance,
        config=config,
        seed=seed,
        recorder=recorder,
    )
    return [
        MoveSample(m.pass_index, m.node, m.selection_key, m.immediate_gain)
        for m in recorder.moves
    ]


def analyze_prediction(
    samples: Sequence[MoveSample],
) -> PredictionReport:
    """Summarize a sample set (see module docstring)."""
    if not samples:
        raise ValueError("no move samples")
    first_pass = [s for s in samples if s.pass_index == 0]
    rho: Optional[float] = None
    if len(first_pass) >= 8:
        sel = [s.selection_gain for s in first_pass]
        imm = [s.immediate_gain for s in first_pass]
        if len(set(sel)) > 1 and len(set(imm)) > 1:
            # ``.correlation`` exists on every scipy this package declares
            # (>= 1.7); ``.statistic`` only arrived in scipy 1.9.
            rho = float(stats.spearmanr(sel, imm).correlation)
    negative = sum(1 for s in samples if s.immediate_gain < 0)
    return PredictionReport(
        samples=list(samples),
        spearman_rho=rho,
        negative_immediate_fraction=negative / len(samples),
        mean_selection_gain=(
            sum(s.selection_gain for s in samples) / len(samples)
        ),
        mean_immediate_gain=(
            sum(s.immediate_gain for s in samples) / len(samples)
        ),
    )


def gain_prediction_report(
    graph: Hypergraph,
    balance: Optional[BalanceConstraint] = None,
    config: Optional[PropConfig] = None,
    seed: int = 0,
) -> PredictionReport:
    """Convenience: run + analyze in one call."""
    return analyze_prediction(
        collect_move_samples(graph, balance=balance, config=config, seed=seed)
    )


# ----------------------------------------------------------------------
# Portfolio selection: which algorithm for this instance?
# ----------------------------------------------------------------------
#: Algorithm names (CLI spelling) a default portfolio ranges over — one
#: representative per family: flat move-based (FM), lookahead (LA-2),
#: probabilistic (PROP), multilevel and spectral.
PORTFOLIO_ALGORITHMS = ("fm", "la-2", "prop", "ml-prop", "eig1")


@dataclass(frozen=True)
class InstanceFeatures:
    """Cheap structural features of one netlist.

    Everything is O(pins) to compute and scale-free enough for
    nearest-neighbour matching: raw sizes enter the feature vector
    log-scaled, shape statistics (mean net size, mean degree, degree
    variance) enter raw.
    """

    nodes: int
    nets: int
    pins: int
    mean_net_size: float
    mean_degree: float
    degree_variance: float

    def vector(self) -> Tuple[float, ...]:
        """The matching-space embedding (log-scaled sizes + shape)."""
        return (
            math.log(max(1, self.nodes)),
            math.log(max(1, self.nets)),
            math.log(max(1, self.pins)),
            self.mean_net_size,
            self.mean_degree,
            self.degree_variance,
        )


def instance_features(graph: Hypergraph) -> InstanceFeatures:
    """Extract :class:`InstanceFeatures` from a hypergraph."""
    n, e, p = graph.num_nodes, graph.num_nets, graph.num_pins
    degrees = [graph.node_degree(v) for v in range(n)]
    mean_degree = sum(degrees) / n if n else 0.0
    degree_variance = (
        sum((d - mean_degree) ** 2 for d in degrees) / n if n else 0.0
    )
    return InstanceFeatures(
        nodes=n,
        nets=e,
        pins=p,
        mean_net_size=p / e if e else 0.0,
        mean_degree=mean_degree,
        degree_variance=degree_variance,
    )


@dataclass(frozen=True)
class PortfolioObservation:
    """One training point: an algorithm's performance on one instance.

    ``normalized_cut`` is ``best_cut / max(1, nets)`` — the fraction of
    nets cut, comparable across instance sizes.
    """

    circuit: str
    algorithm: str
    features: InstanceFeatures
    normalized_cut: float
    seconds_per_run: float = 0.0


@dataclass
class PortfolioModel:
    """Distance-weighted k-NN predictor of per-algorithm performance.

    Prediction: z-score the query features against the training
    population, find the ``k`` nearest training circuits, and average
    each algorithm's normalized cut over them with ``1 / (1 + distance)``
    weights.  :meth:`rank` orders algorithms by that prediction
    (ascending — smaller predicted cut first) with the algorithm name as
    a deterministic tie-break; :meth:`select` returns the winner.

    k-NN is the right size of hammer here: the corpus is tens of
    circuits, the features are six-dimensional, and the model must be
    exactly reproducible from its JSON serialization — no iterative
    fitting, no randomness.
    """

    observations: List[PortfolioObservation]
    k: int = 3

    def __post_init__(self) -> None:
        if not self.observations:
            raise ValueError("portfolio model needs training observations")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    # -- training-population geometry ----------------------------------
    def _feature_stats(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Per-dimension mean and stddev over distinct training circuits."""
        vectors = [
            feats.vector() for _, feats in sorted(self._circuits().items())
        ]
        dims = len(vectors[0])
        means = tuple(
            sum(v[d] for v in vectors) / len(vectors) for d in range(dims)
        )
        stds = tuple(
            math.sqrt(
                sum((v[d] - means[d]) ** 2 for v in vectors) / len(vectors)
            )
            or 1.0  # constant dimension: don't divide by zero
            for d in range(dims)
        )
        return means, stds

    def _circuits(self) -> Dict[str, InstanceFeatures]:
        circuits: Dict[str, InstanceFeatures] = {}
        for obs in self.observations:
            circuits[obs.circuit] = obs.features
        return circuits

    def _neighbors(
        self, features: InstanceFeatures
    ) -> List[Tuple[float, str]]:
        """The k nearest training circuits as ``(distance, name)``."""
        means, stds = self._feature_stats()
        query = [
            (x - m) / s for x, m, s in zip(features.vector(), means, stds)
        ]
        ranked = sorted(
            (
                (
                    math.sqrt(sum(
                        ((x - m) / s - q) ** 2
                        for x, m, s, q in zip(
                            feats.vector(), means, stds, query
                        )
                    )),
                    name,
                )
                for name, feats in self._circuits().items()
            ),
        )
        return ranked[: min(self.k, len(ranked))]

    # -- prediction ----------------------------------------------------
    def predict(self, features: InstanceFeatures) -> Dict[str, float]:
        """Predicted normalized cut per algorithm (lower is better)."""
        neighbors = self._neighbors(features)
        by_circuit: Dict[str, Dict[str, float]] = {}
        for obs in self.observations:
            by_circuit.setdefault(obs.circuit, {})[obs.algorithm] = (
                obs.normalized_cut
            )
        scores: Dict[str, float] = {}
        algorithms = sorted({obs.algorithm for obs in self.observations})
        for algorithm in algorithms:
            weighted = total = 0.0
            for distance, circuit in neighbors:
                cut = by_circuit[circuit].get(algorithm)
                if cut is None:
                    continue  # algorithm unmeasured on this neighbor
                weight = 1.0 / (1.0 + distance)
                weighted += weight * cut
                total += weight
            if total > 0:
                scores[algorithm] = weighted / total
        return scores

    def rank(self, graph: Hypergraph) -> List[Tuple[str, float]]:
        """Algorithms ordered best-first for ``graph``."""
        scores = self.predict(instance_features(graph))
        return sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))

    def select(self, graph: Hypergraph) -> str:
        """The predicted-best algorithm name for ``graph``."""
        ranked = self.rank(graph)
        if not ranked:
            raise ValueError("no algorithm has predictions for this graph")
        return ranked[0][0]

    # -- serialization -------------------------------------------------
    def to_json(self) -> str:
        """Serialize (sorted keys — byte-stable for identical models)."""
        return json.dumps(
            {
                "k": self.k,
                "observations": [
                    {
                        "circuit": o.circuit,
                        "algorithm": o.algorithm,
                        "features": {
                            "nodes": o.features.nodes,
                            "nets": o.features.nets,
                            "pins": o.features.pins,
                            "mean_net_size": o.features.mean_net_size,
                            "mean_degree": o.features.mean_degree,
                            "degree_variance": o.features.degree_variance,
                        },
                        "normalized_cut": o.normalized_cut,
                        "seconds_per_run": o.seconds_per_run,
                    }
                    for o in self.observations
                ],
            },
            sort_keys=True,
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PortfolioModel":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        observations = [
            PortfolioObservation(
                circuit=o["circuit"],
                algorithm=o["algorithm"],
                features=InstanceFeatures(**o["features"]),
                normalized_cut=o["normalized_cut"],
                seconds_per_run=o.get("seconds_per_run", 0.0),
            )
            for o in payload["observations"]
        ]
        return cls(observations=observations, k=payload.get("k", 3))

    def save(self, path: str) -> None:
        """Write the model to ``path`` as JSON."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "PortfolioModel":
        """Read a model previously written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_json(fh.read())


def train_portfolio(
    circuits: Mapping[str, Hypergraph],
    algorithms: Sequence[str] = PORTFOLIO_ALGORITHMS,
    runs: int = 8,
    base_seed: int = 0,
    balance: Optional[BalanceConstraint] = None,
    engine: Optional["Engine"] = None,
    k: int = 3,
) -> PortfolioModel:
    """Sweep ``algorithms`` over ``circuits`` and fit a portfolio model.

    Each (circuit, algorithm) cell is a ``runs``-restart best-of-N via
    :func:`repro.multirun.run_many` (deterministic partitioners
    short-circuit to one run as usual), recorded as its normalized best
    cut.  Pass an :class:`repro.engine.Engine` to parallelize and cache
    the sweep; results are identical either way.
    """
    import warnings

    from ..cli import _make_partitioner
    from ..multirun import run_many

    observations: List[PortfolioObservation] = []
    for name in sorted(circuits):
        graph = circuits[name]
        features = instance_features(graph)
        for algorithm in algorithms:
            partitioner = _make_partitioner(algorithm)
            try:
                with warnings.catch_warnings():
                    # Deterministic algorithms clamp runs>1 with a
                    # warning; in a sweep that is expected, not
                    # actionable.
                    warnings.simplefilter("ignore", UserWarning)
                    outcome = run_many(
                        partitioner,
                        graph,
                        runs=runs,
                        balance=balance,
                        base_seed=base_seed,
                        circuit_name=name,
                        engine=engine,
                    )
            except Exception:
                # An algorithm that cannot handle this instance (e.g. a
                # spectral ordering with no balanced split point) is a
                # missing cell, not a failed sweep: the model simply
                # never recommends it for similar instances.
                continue
            if outcome.best is None:
                continue  # every run failed; nothing to learn here
            observations.append(
                PortfolioObservation(
                    circuit=name,
                    algorithm=algorithm,
                    features=features,
                    normalized_cut=(
                        outcome.best_cut / max(1, graph.num_nets)
                    ),
                    seconds_per_run=outcome.seconds_per_run,
                )
            )
    return PortfolioModel(
        observations=observations, k=min(k, len(circuits))
    )
