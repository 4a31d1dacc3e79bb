"""Coupling-graph construction for spatially coupled CDMA ensembles.

A coupling graph is a bipartite multigraph on L factor nodes (symbol
periods, rows of the base matrix) and L variable nodes (transmit
positions, columns).  The regular graph connects each variable node to
its 2W+1 circularly nearest factor nodes; small-world variants rewire
the edges around designated cluster centers so distant training regions
share reliability.  Only the squared coupling weights b^2 enter density
evolution, so graphs convert to base matrices of b^2 values.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "GraphError",
    "GraphParseError",
    "MAX_CHAIN_LENGTH",
    "Provenance",
    "CouplingGraph",
    "TrainingAssignment",
    "BaseMatrix",
    "make_regular",
    "cluster_of",
    "sw_rewire",
    "assign_training",
    "to_base_matrix",
    "average_load",
    "serialize_graph",
    "parse_graph",
]

_SEED_LIMIT = 1 << 64

# Graphs and base matrices are dense L x L tables, and one DE iteration
# costs two L x L matvecs.  At this cap each table takes 32 MiB.
MAX_CHAIN_LENGTH = 2048


class GraphError(ValueError):
    """A coupling graph violates a structural requirement."""


class GraphParseError(GraphError):
    """A serialized graph document is malformed."""


@dataclass(frozen=True)
class Provenance:
    """How a rewired graph was produced: rewiring probability, cluster count, seed."""

    p: float
    c: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"rewiring probability must lie in [0, 1], got {self.p}")
        if self.c < 1:
            raise ValueError(f"cluster count must be positive, got {self.c}")
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class CouplingGraph:
    """Bipartite multigraph of L factor and L variable nodes.

    ``mult[l, m]`` counts the edges between factor node l and variable
    node m.  Every variable node has degree exactly 2W+1; factor-node
    degrees may differ after rewiring.
    """

    L: int
    W: int
    mult: NDArray[np.int64]
    provenance: Provenance | None = None

    def __post_init__(self) -> None:
        check_band(self.L, self.W)
        mult = np.ascontiguousarray(np.asarray(self.mult, dtype=np.int64))
        if mult.shape != (self.L, self.L):
            raise GraphError(
                f"multiplicity table must be {self.L}x{self.L}, got shape {mult.shape}"
            )
        if (mult < 0).any():
            raise GraphError("edge multiplicities must be nonnegative")
        degree = 2 * self.W + 1
        bad = np.flatnonzero(mult.sum(axis=0) != degree)
        if bad.size:
            raise GraphError(
                f"variable node {int(bad[0])} has degree "
                f"{int(mult[:, bad[0]].sum())}, expected 2W+1 = {degree}"
            )
        mult.setflags(write=False)
        object.__setattr__(self, "mult", mult)

    def factor_degrees(self) -> NDArray[np.int64]:
        """Row sums: number of edges at each factor node."""
        return self.mult.sum(axis=1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingGraph):
            return NotImplemented
        return (
            self.L == other.L
            and self.W == other.W
            and self.provenance == other.provenance
            and np.array_equal(self.mult, other.mult)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class TrainingAssignment:
    """Factor nodes forming the training phase T; the rest are the propagation phase."""

    training_set: tuple[int, ...]
    tau: int

    def __post_init__(self) -> None:
        members = tuple(int(t) for t in self.training_set)
        if len(set(members)) != len(members):
            raise ValueError(f"training set has repeated indices: {members}")
        if self.tau != len(members):
            raise ValueError(
                f"tau={self.tau} does not match training set size {len(members)}"
            )
        object.__setattr__(self, "training_set", tuple(sorted(members)))


@dataclass(frozen=True, eq=False)
class BaseMatrix:
    """L x L table of squared coupling weights b^2, column-normalized to unit power."""

    L: int
    bsq: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.L < 1:
            raise GraphError(f"matrix size must be positive, got L={self.L}")
        bsq = np.ascontiguousarray(np.asarray(self.bsq, dtype=np.float64))
        if bsq.shape != (self.L, self.L):
            raise GraphError(f"base matrix must be {self.L}x{self.L}, got {bsq.shape}")
        if not ((bsq >= 0.0) & (bsq <= 1.0)).all():  # NaN fails both
            raise GraphError("squared weights must lie in [0, 1]")
        colsum = bsq.sum(axis=0)
        bad = np.flatnonzero(np.abs(colsum - 1.0) > 1e-12)
        if bad.size:
            raise GraphError(
                f"column {int(bad[0])} sums to {colsum[bad[0]]!r}, expected 1"
            )
        bsq.setflags(write=False)
        object.__setattr__(self, "bsq", bsq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BaseMatrix):
            return NotImplemented
        return self.L == other.L and np.array_equal(self.bsq, other.bsq)

    __hash__ = None  # type: ignore[assignment]


def check_band(L: int, W: int) -> None:
    """Reject a regular band that is empty, overlaps itself (L < 2W+2) or is too long."""
    if W < 1:
        raise GraphError(f"coupling width must be positive, got W={W}")
    if L < 2 * W + 2:
        raise GraphError(f"band self-overlaps: need L >= 2W+2, got L={L}, W={W}")
    if L > MAX_CHAIN_LENGTH:
        raise GraphError(f"chain length L={L} exceeds the maximum {MAX_CHAIN_LENGTH}")


def check_positive(name: str, value: float) -> None:
    """Reject NaN, inf and values below the smallest normal float, whose reciprocal overflows."""
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"{name} must be positive and finite (a normal float), got {value}")


def check_training(members, L: int) -> None:
    """Reject training indices outside [0, L)."""
    bad = [t for t in members if not 0 <= t < L]
    if bad:
        raise ValueError(f"training indices {bad} out of range for chain length {L}")


def check_rewiring(L: int, W: int, p: float, c: int) -> None:
    """Reject rewiring parameters that :func:`sw_rewire` cannot apply to a regular (L, W) band."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rewiring probability must lie in [0, 1], got {p}")
    if c < 1:
        raise GraphError(f"cluster count must be positive, got {c}")
    if p > 0.0 and c < 2:
        raise GraphError("rewiring needs at least two clusters when p > 0")
    if L % c != 0:
        raise GraphError(f"cluster count must divide chain length: L={L}, c={c}")
    if L // c <= 4 * W:
        raise GraphError(
            f"cluster windows overlap: need L/c > 4W, got L={L}, c={c}, W={W}"
        )


def check_quota(tau: int, L: int) -> None:
    """Reject a training quota outside [1, L]."""
    if not 1 <= tau <= L:
        raise ValueError(f"training quota must lie in [1, L={L}], got tau={tau}")


def check_seed(seed: int) -> None:
    """Reject a seed that is not a 64-bit unsigned integer."""
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _regular_mult(L: int, W: int) -> NDArray[np.int64]:
    dist = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    return ((dist <= W) | (dist >= L - W)).astype(np.int64)


def make_regular(L: int, W: int) -> CouplingGraph:
    """Regular circulant coupling: factor l joins variables within circular distance W.

    Requires L >= 2W+2 so the circular band does not overlap itself.
    """
    check_band(L, W)
    return CouplingGraph(L=L, W=W, mult=_regular_mult(L, W))


def cluster_of(center: int, L: int, W: int) -> set[int]:
    """Nodes within bipartite distance 2 of ``center`` on its own side.

    In the regular graph this is the circular window of 4W+1 indices
    around the center (capped at L); by symmetry the same window applies
    to factor and variable nodes alike.
    """
    if not 0 <= center < L:
        raise IndexError(f"center {center} out of range [0, {L})")
    reach = 2 * W
    return {(center + j) % L for j in range(-reach, reach + 1)}


def sw_rewire(
    g: CouplingGraph, p: float, c: int, tau: int, seed: int
) -> tuple[CouplingGraph, TrainingAssignment]:
    """Small-world rewiring of a regular graph, plus a training assignment.

    Takes c equally spaced cluster centers 0, L/c, 2L/c, ...  For each
    cluster in turn, every edge currently attached to the cluster's
    variable nodes is, with probability p, detached from its factor node
    and reattached to a factor node drawn uniformly from the union of
    the other clusters' windows.  Parallel edges accumulate, so column
    sums stay 2W+1.  Edge order is deterministic: ascending variable
    index, then ascending factor index, over a snapshot taken before the
    cluster's pass; each edge consumes one uniform draw, plus a second
    draw for the target when it fires.  The training assignment is drawn
    from the same generator afterwards, so a single seed reproduces the
    whole instance.
    """
    check_rewiring(g.L, g.W, p, c)
    if not np.array_equal(g.mult, _regular_mult(g.L, g.W)):
        raise GraphError("rewiring must start from the regular graph")
    check_seed(seed)

    rng = np.random.default_rng(seed)
    mult = np.array(g.mult)
    centers = [i * (g.L // c) for i in range(c)]
    for i in range(c):
        others: set[int] = set()
        for j in range(c):
            if j != i:
                others |= cluster_of(centers[j], g.L, g.W)
        targets = np.asarray(sorted(others), dtype=np.int64)
        window = sorted(cluster_of(centers[i], g.L, g.W))
        snapshot = mult[:, window].copy()
        for k, m in enumerate(window):
            column = snapshot[:, k]
            for l in np.flatnonzero(column).tolist():
                for _ in range(int(column[l])):
                    if rng.random() < p:
                        mult[l, m] -= 1
                        mult[targets[rng.integers(targets.size)], m] += 1

    rewired = CouplingGraph(
        L=g.L, W=g.W, mult=mult, provenance=Provenance(p=p, c=c, seed=seed)
    )
    return rewired, assign_training(rewired, tau, rng)


def assign_training(
    g: CouplingGraph, tau: int, rng: np.random.Generator
) -> TrainingAssignment:
    """Greedy largest-degree training assignment.

    Walks factor-degree levels from the maximum downwards, taking whole
    levels while they fit in the remaining quota and sampling uniformly
    without replacement from the first level that does not.  Degree-0
    factor nodes are never selected.
    """
    check_quota(tau, g.L)
    degrees = g.factor_degrees()
    chosen: list[int] = []
    quota = tau
    for d in np.unique(degrees)[::-1]:
        if d == 0 or quota == 0:
            break
        level = np.flatnonzero(degrees == d)
        if level.size <= quota:
            chosen.extend(int(v) for v in level)
            quota -= int(level.size)
        else:
            picked = rng.choice(level, size=quota, replace=False)
            chosen.extend(int(v) for v in picked)
            quota = 0
    if quota:
        raise GraphError(
            f"only {tau - quota} factor nodes have nonzero degree, cannot fill tau={tau}"
        )
    return TrainingAssignment(training_set=tuple(sorted(chosen)), tau=tau)


def to_base_matrix(g: CouplingGraph) -> BaseMatrix:
    """Squared-weight base matrix: bsq[l, m] = mult[l, m] / (2W+1)."""
    return BaseMatrix(L=g.L, bsq=g.mult / float(2 * g.W + 1))


def average_load(alpha_tr: float, alpha: float, tau: int, L: int) -> float:
    """Harmonic mix of training and propagation loads over the chain.

    With a fraction tau/L of symbol periods at load alpha_tr and the
    rest at alpha, the average load is
    1 / ((tau/L)/alpha_tr + (1 - tau/L)/alpha).
    """
    check_positive("alpha_tr", alpha_tr)
    check_positive("alpha", alpha)
    if L < 1:
        raise ValueError(f"chain length must be positive, got L={L}")
    if not 0 <= tau <= L:
        raise ValueError(f"tau must lie in [0, L={L}], got {tau}")
    frac = tau / L
    return 1.0 / (frac / alpha_tr + (1.0 - frac) / alpha)


def serialize_graph(g: CouplingGraph, assignment: TrainingAssignment) -> str:
    """Canonical JSON text for a graph and its training assignment.

    Key order, edge order (sorted by factor then variable index), and
    training order (ascending) are fixed, so equal graphs serialize to
    byte-identical text.
    """
    rows, cols = np.nonzero(g.mult)
    edges = [[int(l), int(m), int(g.mult[l, m])] for l, m in zip(rows, cols)]
    prov = (
        None
        if g.provenance is None
        else {"p": g.provenance.p, "c": g.provenance.c, "seed": g.provenance.seed}
    )
    doc = {
        "version": 1,
        "L": g.L,
        "W": g.W,
        "provenance": prov,
        "edges": edges,
        "training": list(assignment.training_set),
    }
    return json.dumps(doc, indent=2) + "\n"


def _require_int(doc: dict, field: str) -> int:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphParseError(f"field {field!r} must be an integer, got {value!r}")
    return value


def parse_graph(text: str) -> tuple[CouplingGraph, TrainingAssignment]:
    """Inverse of :func:`serialize_graph`; rejects malformed documents outright."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise GraphParseError(f"invalid graph file: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphParseError("graph document must be a JSON object")
    for field in ("version", "L", "W", "provenance", "edges", "training"):
        if field not in doc:
            raise GraphParseError(f"missing field {field!r}")
    version = _require_int(doc, "version")
    if version != 1:
        raise GraphParseError(f"unsupported graph version: {version!r}")
    L = _require_int(doc, "L")
    W = _require_int(doc, "W")

    prov_doc = doc["provenance"]
    provenance = None
    if prov_doc is not None:
        if not isinstance(prov_doc, dict) or set(prov_doc) != {"p", "c", "seed"}:
            raise GraphParseError(
                f"field 'provenance' must be null or have keys p, c, seed, got {prov_doc!r}"
            )
        if not isinstance(prov_doc["p"], (int, float)) or isinstance(prov_doc["p"], bool):
            raise GraphParseError(f"provenance field 'p' must be a number, got {prov_doc['p']!r}")
        c = _require_int(prov_doc, "c")
        seed = _require_int(prov_doc, "seed")
        try:
            provenance = Provenance(p=float(prov_doc["p"]), c=c, seed=seed)
        except (OverflowError, ValueError) as exc:  # float() of a huge int overflows
            raise GraphParseError(f"invalid provenance: {exc}") from exc

    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphParseError("field 'edges' must be a list")
    # Every variable node has degree 2W+1 >= 3, so it appears in at least one
    # edge; checking that before the dense (L, L) table keeps a huge L from
    # turning into a huge allocation.
    if L > len(edges):
        raise GraphParseError(
            f"L={L} variable nodes need at least {L} edges, got {len(edges)}"
        )
    # The band rule caps L, and so bounds 2W+1, every multiplicity and
    # every column sum far inside int64.
    try:
        check_band(L, W)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc
    degree = 2 * W + 1
    mult = np.zeros((L, L), dtype=np.int64)
    for pos, edge in enumerate(edges):
        if (
            not isinstance(edge, list)
            or len(edge) != 3
            or any(isinstance(v, bool) or not isinstance(v, int) for v in edge)
        ):
            raise GraphParseError(f"edge {pos} must be [factor, variable, mult], got {edge!r}")
        l, m, k = edge
        if not (0 <= l < L and 0 <= m < L):
            raise GraphParseError(f"edge {pos} endpoints ({l}, {m}) out of range [0, {L})")
        if not 1 <= k <= degree:
            raise GraphParseError(
                f"edge {pos} multiplicity must lie in [1, 2W+1 = {degree}], got {k}"
            )
        if mult[l, m]:
            raise GraphParseError(f"edge {pos} repeats endpoints ({l}, {m})")
        mult[l, m] = k

    training = doc["training"]
    if not isinstance(training, list) or any(
        isinstance(t, bool) or not isinstance(t, int) for t in training
    ):
        raise GraphParseError("field 'training' must be a list of integers")

    try:
        check_training(training, L)
        graph = CouplingGraph(L=L, W=W, mult=mult, provenance=provenance)
        assignment = TrainingAssignment(
            training_set=tuple(training), tau=len(training)
        )
    except ValueError as exc:
        raise GraphParseError(f"inconsistent graph document: {exc}") from exc
    return graph, assignment
