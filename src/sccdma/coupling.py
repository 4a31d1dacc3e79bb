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
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from . import _EXPORTS

__all__ = list(_EXPORTS["coupling"])

_MAX_SEED = (1 << 64) - 1

# Graphs and base matrices are dense L x L tables, and one DE iteration
# costs two L x L matvecs.  At this cap each table takes 32 MiB.
MAX_CHAIN_LENGTH = 2048

# The longest text serialize_graph can write at MAX_CHAIN_LENGTH: fewer than
# L^2 edges of at most 48 characters each (the widest, [2047, 2047, 2047],
# spans five indented lines), and 64 KiB for the header and the training
# list.  About 201 MB; a longer file is not a graph document.
_GRAPH_CHARS_PER_EDGE = 48
_MAX_GRAPH_CHARS = _GRAPH_CHARS_PER_EDGE * MAX_CHAIN_LENGTH**2 + (64 << 10)


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
        object.__setattr__(self, "c", _check_p_and_c(self.p, self.c))
        object.__setattr__(self, "seed", check_seed(self.seed))


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
        L, W = check_band(self.L, self.W)
        mult = np.ascontiguousarray(np.asarray(self.mult, dtype=np.int64))
        if mult.shape != (L, L):
            raise GraphError(f"multiplicity table must be {L}x{L}, got shape {mult.shape}")
        if (mult < 0).any():
            raise GraphError("edge multiplicities must be nonnegative")
        degree = 2 * W + 1
        bad = np.flatnonzero(mult.sum(axis=0) != degree)
        if bad.size:
            raise GraphError(
                f"variable node {int(bad[0])} has degree "
                f"{int(mult[:, bad[0]].sum())}, expected 2W+1 = {degree}"
            )
        mult.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "W", W)
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
        bad = [t for t in self.training_set if not _is_int(t)]
        if bad:
            raise ValueError(f"training indices must be integers, got {bad}")
        tau = check_int("training quota tau", self.tau, 0)
        members = tuple(int(t) for t in self.training_set)
        if len(set(members)) != len(members):
            raise ValueError(f"training set has repeated indices: {members}")
        if tau != len(members):
            raise ValueError(f"tau={tau} does not match training set size {len(members)}")
        object.__setattr__(self, "training_set", tuple(sorted(members)))
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True, eq=False)
class BaseMatrix:
    """L x L table of squared coupling weights b^2, column-normalized to unit power."""

    L: int
    bsq: NDArray[np.float64]

    def __post_init__(self) -> None:
        L = check_int("matrix size L", self.L, 1, error=GraphError)
        bsq = np.ascontiguousarray(np.asarray(self.bsq, dtype=np.float64))
        if bsq.shape != (L, L):
            raise GraphError(f"base matrix must be {L}x{L}, got {bsq.shape}")
        if not ((bsq >= 0.0) & (bsq <= 1.0)).all():  # NaN fails both
            raise GraphError("squared weights must lie in [0, 1]")
        colsum = bsq.sum(axis=0)
        bad = np.flatnonzero(np.abs(colsum - 1.0) > 1e-12)
        if bad.size:
            raise GraphError(
                f"column {int(bad[0])} sums to {colsum[bad[0]]!r}, expected 1"
            )
        bsq.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "bsq", bsq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BaseMatrix):
            return NotImplemented
        return self.L == other.L and np.array_equal(self.bsq, other.bsq)

    __hash__ = None  # type: ignore[assignment]


def _is_int(value) -> bool:
    """Whether value is an integer: a Python or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(
    name: str, value: int, lo: int, hi: float = math.inf, error: type[ValueError] = ValueError
) -> int:
    """``value`` as a Python int; rejects a value that is not an integer in [lo, hi] with ``error``.

    Callers go on with the int, so that no arithmetic runs in a numpy
    integer type, which wraps.
    """
    if not (_is_int(value) and lo <= value <= hi):
        raise error(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def check_band(L: int, W: int) -> tuple[int, int]:
    """L and W as ints; rejects a band not integral, empty, self-overlapping (L < 2W+2) or too long."""
    L = check_int("chain length L", L, 1, error=GraphError)
    W = check_int("coupling width W", W, 1, error=GraphError)
    if L < 2 * W + 2:
        raise GraphError(f"band self-overlaps: need L >= 2W+2, got L={L}, W={W}")
    if L > MAX_CHAIN_LENGTH:
        raise GraphError(f"chain length L={L} exceeds the maximum {MAX_CHAIN_LENGTH}")
    return L, W


def check_positive(name: str, value: float) -> None:
    """Reject NaN, inf and values below the smallest normal float, whose reciprocal overflows."""
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"{name} must be positive and finite (a normal float), got {value}")


def check_training(members, L: int) -> None:
    """Reject training indices outside [0, L)."""
    bad = [t for t in members if not 0 <= t < L]
    if bad:
        raise ValueError(f"training indices {bad} out of range for chain length {L}")


def _check_p_and_c(p: float, c: int) -> int:
    """c as an int; rejects a rewiring probability outside [0, 1] or a c not a positive integer."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rewiring probability must lie in [0, 1], got {p}")
    return check_int("cluster count c", c, 1, error=GraphError)


def check_rewiring(L: int, W: int, p: float, c: int) -> tuple[int, int, int]:
    """L, W and c as ints; rejects what :func:`sw_rewire` cannot apply to a regular (L, W) band."""
    L, W = check_band(L, W)
    c = _check_p_and_c(p, c)
    if p > 0.0 and c < 2:
        raise GraphError("rewiring needs at least two clusters when p > 0")
    if L % c != 0:
        raise GraphError(f"cluster count must divide chain length: L={L}, c={c}")
    if L // c <= 4 * W:
        raise GraphError(
            f"cluster windows overlap: need L/c > 4W, got L={L}, c={c}, W={W}"
        )
    return L, W, c


def check_seed(seed: int) -> int:
    """``seed`` as an int; rejects a seed that is not a 64-bit unsigned integer."""
    return check_int("seed", seed, 0, _MAX_SEED)


def _regular_mult(L: int, W: int) -> NDArray[np.int64]:
    dist = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    return ((dist <= W) | (dist >= L - W)).astype(np.int64)


def make_regular(L: int, W: int) -> CouplingGraph:
    """Regular circulant coupling: factor l joins variables within circular distance W.

    Requires L >= 2W+2 so the circular band does not overlap itself.
    """
    L, W = check_band(L, W)
    return CouplingGraph(L=L, W=W, mult=_regular_mult(L, W))


def cluster_of(center: int, L: int, W: int) -> set[int]:
    """Nodes within bipartite distance 2 of ``center`` on its own side.

    In the regular graph this is the circular window of 4W+1 indices
    around the center (capped at L); by symmetry the same window applies
    to factor and variable nodes alike.
    """
    L, W = check_band(L, W)
    if not _is_int(center):
        raise ValueError(f"center must be an integer, got center={center!r}")
    if not 0 <= center < L:
        raise IndexError(f"center {center} out of range [0, {L})")
    center, reach = int(center), 2 * W
    return {(center + j) % L for j in range(-reach, reach + 1)}


# One entry per (L, W, c) a process samples from; at L = 2048 an entry
# holds up to two dense L x L int64 tables' worth of band and edges.
@lru_cache(maxsize=4)
def _rewire_plan(
    L: int, W: int, c: int
) -> tuple[NDArray[np.int64], tuple[tuple[NDArray[np.int64], NDArray[np.int64]], ...]]:
    """Seed-free part of :func:`sw_rewire`: the band, and per cluster its edges and targets.

    A cluster's edges are the (l, m) pairs of the band in its window's
    columns, by ascending variable m, then ascending factor l; its targets
    are the sorted union of the other clusters' windows.  Every array is
    read-only, so no caller can change what the next one draws from.
    """
    band = _regular_mult(L, W)
    band.setflags(write=False)
    centers = [i * (L // c) for i in range(c)]
    windows = [sorted(cluster_of(center, L, W)) for center in centers]
    passes = []
    for i, window in enumerate(windows):
        others = set().union(*(windows[j] for j in range(c) if j != i))
        targets = np.asarray(sorted(others), dtype=np.int64)
        # Transposed so nonzero walks columns in window order, rows ascending.
        ks, ls = np.nonzero(band[:, window].T)
        edges = np.column_stack((ls, np.asarray(window, dtype=np.int64)[ks]))
        edges.setflags(write=False)
        targets.setflags(write=False)
        passes.append((edges, targets))
    return band, tuple(passes)


def _rewired_graph(
    L: int, W: int, p: float, c: int, seed: int
) -> tuple[CouplingGraph, np.random.Generator]:
    """The graph :func:`sw_rewire` draws from ``seed``, and the generator after its draws."""
    L, W, c = check_rewiring(L, W, p, c)
    seed = check_seed(seed)

    rng = np.random.default_rng(seed)
    band, passes = _rewire_plan(L, W, c)
    mult = band.copy()
    for edges, targets in passes:
        for l, m in edges.tolist():
            if rng.random() < p:
                mult[l, m] -= 1
                mult[targets[rng.integers(targets.size)], m] += 1
    rewired = CouplingGraph(L=L, W=W, mult=mult, provenance=Provenance(p=p, c=c, seed=seed))
    return rewired, rng


def sw_rewire(
    L: int, W: int, p: float, c: int, tau: int, seed: int
) -> tuple[CouplingGraph, TrainingAssignment]:
    """Small-world rewiring of the regular (L, W) band, plus a training assignment.

    Takes c equally spaced cluster centers 0, L/c, 2L/c, ...  For each
    cluster in turn, every edge currently attached to the cluster's
    variable nodes is, with probability p, detached from its factor node
    and reattached to a factor node drawn uniformly from the union of
    the other clusters' windows.  Parallel edges accumulate, so column
    sums stay 2W+1.  The rewiring rule requires L/c > 4W, so the cluster
    windows are disjoint; a pass moves edges only within its own
    window's columns, so every cluster's pass sees exactly the regular
    band's edges there, each of multiplicity 1.  Draw order is
    deterministic: clusters by ascending center, then edges by ascending
    variable index, then ascending factor index; each edge consumes one
    ``rng.random()`` draw, plus one ``rng.integers(n_targets)`` draw for
    the target when it fires.  The training assignment is drawn from the
    same generator afterwards, so a single seed reproduces the whole
    instance, and the graph does not depend on tau.
    """
    rewired, rng = _rewired_graph(L, W, p, c, seed)
    return rewired, assign_training(rewired, tau, rng)


def assign_training(
    g: CouplingGraph, tau: int, rng: np.random.Generator
) -> TrainingAssignment:
    """Greedy largest-degree training assignment.

    Takes every factor node whose degree exceeds the cut, the tau-th
    largest degree, and fills the quota from the cut level: all of it
    when it fits, else ``rng.choice`` of its ascending node indices,
    uniformly without replacement.  Degree-0 nodes are never selected.
    """
    tau = check_int("training quota tau", tau, 1, g.L)
    degrees = g.factor_degrees()
    cut = np.sort(degrees)[-tau]
    if cut == 0:
        raise GraphError(
            f"only {np.count_nonzero(degrees)} factor nodes have nonzero degree, "
            f"cannot fill tau={tau}"
        )
    chosen = np.flatnonzero(degrees > cut).tolist()
    level = np.flatnonzero(degrees == cut)
    if level.size > tau - len(chosen):
        level = rng.choice(level, size=tau - len(chosen), replace=False)
    return TrainingAssignment(training_set=tuple(sorted(chosen + level.tolist())), tau=tau)


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
    L = check_int("chain length L", L, 1)
    tau = check_int("training quota tau", tau, 0, L)
    frac = tau / L
    mean = 1.0 / (frac / alpha_tr + (1.0 - frac) / alpha)
    # With both loads within rounding of the largest float the sum of
    # reciprocals is subnormal, and its rounding can overflow the
    # reciprocal; the exact mean never exceeds the larger load.
    return mean if mean < math.inf else max(alpha_tr, alpha)


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
        else {
            "p": float(g.provenance.p),
            "c": g.provenance.c,
            "seed": g.provenance.seed,
        }
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
    if not _is_int(value):
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
        L, W = check_band(L, W)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc
    degree = 2 * W + 1
    mult = np.zeros((L, L), dtype=np.int64)
    for pos, edge in enumerate(edges):
        if (
            not isinstance(edge, list)
            or len(edge) != 3
            or not all(_is_int(v) for v in edge)
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
    if not isinstance(training, list) or not all(_is_int(t) for t in training):
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
