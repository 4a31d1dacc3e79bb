from __future__ import annotations

import enum
import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sccdma import (
    BaseMatrix,
    CouplingGraph,
    GraphError,
    GraphParseError,
    MAX_CHAIN_LENGTH,
    Provenance,
    TrainingAssignment,
    assign_training,
    average_load,
    cluster_of,
    make_regular,
    parse_graph,
    serialize_graph,
    sw_rewire,
    to_base_matrix,
)
from sccdma import coupling


def test_make_regular_band_row():
    g = make_regular(32, 2)
    row0 = set(np.nonzero(g.mult[0])[0])
    assert row0 == {30, 31, 0, 1, 2}
    assert all(g.mult[0][m] == 1 for m in row0)


def test_make_regular_total_multiplicity():
    g = make_regular(32, 2)
    assert int(g.mult.sum()) == 32 * 5


def test_make_regular_band_too_wide():
    with pytest.raises(GraphError):
        make_regular(5, 2)
    # A graph built directly obeys the same band rule.
    with pytest.raises(GraphError, match="2W\\+2"):
        CouplingGraph(L=3, W=1, mult=np.ones((3, 3), dtype=np.int64))
    # 64.0 would be serialized as "L": 64.0, which parse_graph rejects.
    for L, W in ((64.0, 2), (64, 2.0), (True, 1)):
        with pytest.raises(
            GraphError, match=r"(chain length L|coupling width W) must be an integer in \[1,"
        ):
            make_regular(L, W)


def test_make_regular_column_sums():
    for L, W in [(6, 2), (16, 1), (33, 4), (64, 2)]:
        g = make_regular(L, W)
        assert np.all(g.mult.sum(axis=0) == 2 * W + 1)


def test_cluster_of_examples():
    assert cluster_of(0, 32, 2) == {28, 29, 30, 31, 0, 1, 2, 3, 4}
    assert cluster_of(32, 64, 2) == set(range(28, 37))
    assert cluster_of(0, 9, 2) == set(range(9))
    # A numpy center is taken at its value: in int8, 120 + 30 would wrap.
    assert cluster_of(np.int8(120), 256, 15) == cluster_of(120, 256, 15)


def test_cluster_of_out_of_range_center():
    with pytest.raises(IndexError):
        cluster_of(32, 32, 2)
    with pytest.raises(IndexError):
        cluster_of(-1, 32, 2)
    with pytest.raises(ValueError, match="center must be an integer"):
        cluster_of(1.5, 64, 2)
    # L and W obey the band rule, as make_regular's do.
    with pytest.raises(GraphError, match=r"chain length L must be an integer in \[1,"):
        cluster_of(0, 64.5, 2)
    with pytest.raises(GraphError, match=r"coupling width W must be an integer in \[1,"):
        cluster_of(0, 64, 2.0)


class _Small(enum.IntEnum):
    TWO = 2


_SIZED_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.mark.parametrize("value", [2, _Small.TWO, *(t(2) for t in _SIZED_INTS)])
def test_is_int_accepts_python_and_numpy_integers(value):
    assert coupling._is_int(value)


@pytest.mark.parametrize(
    "value", [True, np.True_, 2.0, np.float64(2), Fraction(2), Decimal(2), "2"]
)
def test_is_int_rejects_bools_and_non_integers(value):
    assert not coupling._is_int(value)


@pytest.mark.parametrize(
    "check, args",
    [
        (coupling.check_band, (64, np.int64(2**62))),
        (coupling.check_band, (64, np.uint64(2**64 - 1))),
        (coupling.check_band, (64, np.int8(100))),
        (coupling.check_rewiring, (256, np.int8(32), 0.1, 2)),
    ],
)
def test_band_rules_run_in_python_ints(check, args):
    # In the caller's numpy type 2W + 2 and 4W wrap, and these bands passed.
    with pytest.raises(GraphError):
        check(*args)


def test_checked_counts_are_stored_as_python_ints():
    g, training = sw_rewire(
        np.int16(64), np.int8(2), 0.1, np.uint8(2), np.int32(14), np.uint64(5)
    )
    counts = (g.L, g.W, g.provenance.c, g.provenance.seed, training.tau)
    assert [type(count) for count in counts] == [int] * 5
    assert (g, training) == sw_rewire(64, 2, 0.1, 2, 14, 5)
    assert type(BaseMatrix(L=np.int64(1), bsq=[[1.0]]).L) is int


def test_cluster_of_matches_distance_two_oracle():
    # Same-side distance-2 nodes share at least one neighbor, so the
    # cluster is the support of a row of A A^T.  Exhaustive for L <= 64,
    # W <= 4 over every valid (L, W, center).
    for W in range(1, 5):
        for L in range(2 * W + 2, 65):
            A = make_regular(L, W).mult
            S = (A @ A.T) > 0
            for center in range(L):
                assert cluster_of(center, L, W) == set(np.nonzero(S[center])[0]), (
                    L,
                    W,
                    center,
                )


def test_sw_rewire_p_zero_is_identity():
    g = make_regular(64, 2)
    for seed in range(25):
        rewired, assignment = sw_rewire(64, 2, 0.0, 2, 14, seed)
        assert np.array_equal(rewired.mult, g.mult)
        assert assignment.tau == 14
        assert len(assignment.training_set) == 14


def test_sw_rewire_p_one_crosses_all_cluster_edges():
    win0 = cluster_of(0, 64, 2)
    win1 = cluster_of(32, 64, 2)
    rewired, _ = sw_rewire(64, 2, 1.0, 2, 14, 3)
    for m in sorted(win0):
        rows = set(np.nonzero(rewired.mult[:, m])[0])
        assert rows <= win1, m
    for m in sorted(win1):
        rows = set(np.nonzero(rewired.mult[:, m])[0])
        assert rows <= win0, m


def test_sw_rewire_expected_edge_moves():
    # Rewiring detaches edges from band slots inside the two cluster
    # windows; targets live in the opposite window's rows, which are
    # disjoint from the source band rows for (64, 2, c=2).  Moved mass is
    # therefore sum(max(before - after, 0)).  Mean over 10^4 seeds must
    # sit within 3 standard errors of p * 2 * (4W+1) * (2W+1) = 9.
    g = make_regular(64, 2)
    before = g.mult
    moved = np.empty(10_000)
    for seed in range(moved.size):
        rewired, _ = sw_rewire(64, 2, 0.1, 2, 14, seed)
        moved[seed] = np.maximum(before - rewired.mult, 0).sum()
    se = moved.std(ddof=1) / np.sqrt(moved.size)
    assert abs(moved.mean() - 9.0) <= 3.0 * se


def test_sw_rewire_invariants_on_random_graphs():
    # 1000 rewired graphs: column sums, total mass, integer multiplicities.
    for seed in range(1000):
        rewired, assignment = sw_rewire(64, 2, 0.1, 2, 14, seed)
        assert np.all(rewired.mult.sum(axis=0) == 5)
        assert int(rewired.mult.sum()) == 64 * 5
        assert np.all(rewired.mult >= 0)
        assert len(assignment.training_set) == 14
        assert len(set(assignment.training_set)) == 14


def test_sw_rewire_parameter_validation():
    # domain checks raise plain ValueError, structural ones GraphError
    with pytest.raises(ValueError):
        sw_rewire(64, 2, 1.5, 2, 14, 0)
    with pytest.raises(GraphError):
        sw_rewire(64, 2, 0.1, 1, 14, 0)
    with pytest.raises(GraphError):
        sw_rewire(64, 2, 0.1, 3, 14, 0)  # 64 % 3 != 0
    with pytest.raises(GraphError):
        sw_rewire(16, 2, 0.1, 2, 4, 0)  # L/c = 8 = 4W overlaps
    # Counts and seeds must be integers, not floats equal to one.
    for args in (
        (64, 2.0, 0.1, 2, 14, 0), (64, 2, 0.1, 2.0, 14, 0),
        (64, 2, 0.1, 2, 14.0, 0), (64, 2, 0.1, 2, 14, 4.0),
    ):
        with pytest.raises(ValueError, match="integer"):
            sw_rewire(*args)


def test_provenance_checks_the_rewiring_rules_of_sw_rewire():
    for p, c, kind in ((1.5, 2, ValueError), (float("nan"), 2, ValueError), (0.1, 0, GraphError)):
        with pytest.raises(kind) as from_rewire:
            sw_rewire(64, 2, p, c, 14, 0)
        with pytest.raises(kind) as from_provenance:
            Provenance(p=p, c=c, seed=0)
        assert str(from_provenance.value) == str(from_rewire.value)


def test_assign_training_unique_maximum():
    g = make_regular(64, 2)
    mult = g.mult.copy()
    mult[7, 9] += 2
    mult[8, 9] -= 1
    mult[9, 9] -= 1
    bumped = CouplingGraph(L=64, W=2, mult=mult)
    picked = assign_training(bumped, 1, np.random.default_rng(0))
    assert picked.training_set == (7,)


def test_assign_training_all_tie_level_is_seeded_subset():
    g = make_regular(64, 2)
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    a = assign_training(g, 14, rng_a)
    b = assign_training(g, 14, rng_b)
    assert a == b
    assert len(a.training_set) == 14
    assert set(a.training_set) <= set(range(64))


def test_assign_training_degree_dominance_and_gainers():
    # Over 100 seeded instances: every selected degree >= every unselected
    # degree, and whenever at most tau rows gained edges, all gainers are
    # selected (the tie level only tops up the quota).
    for seed in range(100):
        rewired, assignment = sw_rewire(64, 2, 0.1, 2, 14, seed)
        degrees = rewired.mult.sum(axis=1)
        chosen = np.array(assignment.training_set)
        mask = np.zeros(64, dtype=bool)
        mask[chosen] = True
        assert degrees[mask].min() >= degrees[~mask].max()
        gainers = set(np.nonzero(degrees > 5)[0])
        if len(gainers) <= 14:
            assert gainers <= set(assignment.training_set), seed


def test_assign_training_quota_validation():
    g = make_regular(32, 2)
    for tau in (33, 14.0, True):
        with pytest.raises(ValueError):
            assign_training(g, tau, np.random.default_rng(0))
    # An explicit set obeys the same rule: an index is not truncated to one.
    with pytest.raises(ValueError, match="training indices must be integers"):
        TrainingAssignment((1.5, 2.9), 2)
    # No chain has a negative position; the message names every offender.
    with pytest.raises(ValueError, match=r"got \[-1\]"):
        TrainingAssignment((-1,), 1)
    with pytest.raises(ValueError, match=r"got \[-3, 1.5\]"):
        TrainingAssignment((0, -3, 1.5), 3)
    assert TrainingAssignment((np.int64(2), np.uint8(1)), 2).training_set == (1, 2)
    # So does the quota it is built with.
    for members, tau in (((0, 1), 2.0), ((0,), True)):
        with pytest.raises(ValueError, match="tau must be an integer"):
            TrainingAssignment(members, tau)
    assert TrainingAssignment((0, 1), np.int64(2)).tau == 2
    # A uint64 quota is the int it checks to: -tau does not wrap.
    picked = [assign_training(g, tau, np.random.default_rng(3)) for tau in (np.uint64(5), 5)]
    assert picked[0] == picked[1]


def _level_walk_training(g, tau, rng):
    """The per-level greedy walk that assign_training's one cut replaced."""
    degrees = g.factor_degrees()
    chosen, quota = [], tau
    for d in np.unique(degrees)[::-1]:
        if d == 0 or quota == 0:
            break
        level = np.flatnonzero(degrees == d)
        if level.size <= quota:
            chosen.extend(level.tolist())
            quota -= int(level.size)
        else:
            chosen.extend(rng.choice(level, size=quota, replace=False).tolist())
            quota = 0
    if quota:
        raise GraphError(
            f"only {tau - quota} factor nodes have nonzero degree, cannot fill tau={tau}"
        )
    return TrainingAssignment(training_set=tuple(sorted(chosen)), tau=tau)


def _training_outcome(assign, g, tau, state):
    """(training set or error text, generator state after) of one assignment from ``state``."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    try:
        picked = assign(g, tau, rng).training_set
    except GraphError as exc:
        picked = str(exc)
    return picked, rng.bit_generator.state


def test_assign_training_cut_matches_level_walk():
    # Every tau of seeded rewired graphs, p from 0 to 1: the same training
    # set or error text, and the generator left in the same state.
    paths = {"drew": 0, "fit": 0, "error": 0}
    for L, W, c in ((12, 1, 1), (12, 1, 2), (18, 1, 3), (20, 2, 2), (24, 1, 4), (40, 2, 4)):
        for p in (0.0, 0.05, 0.3, 0.7, 1.0) if c > 1 else (0.0,):
            for seed in range(4):
                g, rng = coupling._rewired_graph(L, W, p, c, seed)
                state = rng.bit_generator.state
                for tau in range(1, L + 1):
                    cut = _training_outcome(assign_training, g, tau, state)
                    assert cut == _training_outcome(_level_walk_training, g, tau, state), (
                        L, W, c, p, seed, tau
                    )
                    if isinstance(cut[0], str):
                        paths["error"] += 1
                    else:
                        paths["drew" if cut[1] != state else "fit"] += 1
    # The sweep reaches each way out of the rule: 1827, 484 and 17 cases.
    assert min(paths.values()) > 0, paths


def test_assign_training_rejects_too_few_nonzero_degrees():
    mult = np.zeros((6, 6), dtype=np.int64)
    mult[0] = 2
    mult[3] = 1
    g = CouplingGraph(L=6, W=1, mult=mult)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert assign_training(g, 2, rng).training_set == (0, 3)
    with pytest.raises(GraphError) as info:
        assign_training(g, 3, rng)
    assert str(info.value) == "only 2 factor nodes have nonzero degree, cannot fill tau=3"
    assert rng.bit_generator.state == state


def test_assign_training_exact_fit_draws_nothing():
    # tau counts every node at or above the cut, so the cut level fills the
    # quota exactly and the generator is untouched.
    g, rng = coupling._rewired_graph(64, 2, 0.1, 2, 0)
    degrees = g.factor_degrees()
    top = np.flatnonzero(degrees >= 6)  # three nodes of degree 7, three of 6
    assert 0 < top.size < 64 and np.unique(degrees[top]).size > 1
    state = rng.bit_generator.state
    assert assign_training(g, int(top.size), rng).training_set == tuple(top.tolist())
    assert rng.bit_generator.state == state


def test_to_base_matrix_values():
    g = make_regular(32, 2)
    B = to_base_matrix(g)
    nz = B.bsq[g.mult > 0]
    assert np.allclose(nz, 0.2, rtol=0, atol=0)
    rewired, _ = sw_rewire(64, 2, 1.0, 2, 14, 5)
    B2 = to_base_matrix(rewired)
    if np.any(rewired.mult == 2):
        assert np.allclose(B2.bsq[rewired.mult == 2], 0.4, rtol=0, atol=0)
    assert np.all(np.abs(B2.bsq.sum(axis=0) - 1.0) <= 1e-12)


def test_base_matrix_rejects_weights_outside_unit_interval():
    for bad in (-0.5, 1.5, np.nan):
        with pytest.raises(GraphError, match="squared weights"):
            BaseMatrix(L=2, bsq=np.array([[bad, 0.0], [1.0 - bad, 1.0]]))


def test_base_matrix_rejects_non_integer_size():
    for bad in (1.0, True, 0):
        with pytest.raises(GraphError, match=r"matrix size L must be an integer in \[1,"):
            BaseMatrix(L=bad, bsq=[[1.0]])
    assert BaseMatrix(L=np.int64(1), bsq=[[1.0]]).L == 1


def test_average_load_reference_points():
    assert abs(average_load(1.45, 1.98958, 14, 64) - 1.83981) <= 1e-4
    assert abs(average_load(1.45, 1.99911, 14, 64) - 1.84617) <= 1e-4


def test_average_load_equal_loads_identity():
    for tau in (0, 7, 64):
        assert average_load(1.7, 1.7, tau, 64) == pytest.approx(1.7, abs=1e-15)


def test_average_load_rejects_nonpositive():
    with pytest.raises(ValueError):
        average_load(0.0, 1.9, 14, 64)
    with pytest.raises(ValueError):
        average_load(1.45, -1.0, 14, 64)
    for bad in (float("nan"), float("inf"), 5e-324):
        with pytest.raises(ValueError, match="alpha_tr must be positive and finite"):
            average_load(bad, 1.9, 14, 64)
    with pytest.raises(ValueError, match="tau must be an integer"):
        average_load(1.45, 1.98, 14.5, 64)
    with pytest.raises(ValueError, match=r"chain length L must be an integer in \[1,"):
        average_load(1.45, 1.98, 14, 64.5)
    assert average_load(1.45, 1.98, np.int64(14), np.uint16(64)) == average_load(1.45, 1.98, 14, 64)


def test_serialize_round_trip_with_provenance():
    g, assignment = sw_rewire(64, 2, 0.1, 2, 14, 7)
    text = serialize_graph(g, assignment)
    g2, a2 = parse_graph(text)
    assert g2 == g
    assert a2 == assignment
    assert g2.provenance == Provenance(p=0.1, c=2, seed=7)
    # numpy integers pass the integer rule, so the document must hold them too.
    for graph, training in (
        (make_regular(np.int64(16), 2), TrainingAssignment((0,), 1)),
        sw_rewire(64, 2, 0.1, 2, 14, np.uint64(5)),
    ):
        assert parse_graph(serialize_graph(graph, training)) == (graph, training)


def test_serialize_deterministic_bytes():
    g, assignment = sw_rewire(64, 2, 0.1, 2, 14, 42)
    assert serialize_graph(g, assignment) == serialize_graph(g, assignment)


def test_parse_rejects_truncated_document():
    g, assignment = sw_rewire(64, 2, 0.1, 2, 14, 9)
    text = serialize_graph(g, assignment)
    with pytest.raises(GraphParseError):
        parse_graph(text[: len(text) // 2])


def test_parse_rejects_duplicate_edges():
    import json

    g = make_regular(8, 1)
    text = serialize_graph(g, TrainingAssignment((0, 1), 2))
    doc = json.loads(text)
    doc["edges"].append(doc["edges"][0])
    with pytest.raises(GraphParseError):
        parse_graph(json.dumps(doc))


def test_parse_rejects_bad_version_and_training():
    import json

    g = make_regular(8, 1)
    text = serialize_graph(g, TrainingAssignment((0,), 1))
    doc = json.loads(text)
    doc["version"] = 2
    with pytest.raises(GraphParseError):
        parse_graph(json.dumps(doc))
    # Equal to 1 in Python, but not the integer 1.
    for version in (True, 1.0):
        doc = json.loads(text)
        doc["version"] = version
        with pytest.raises(GraphParseError, match="version"):
            parse_graph(json.dumps(doc))
    # Out of range, not integers (True equals 1), negative.
    for training in ([8], [1.5], [True], [-1]):
        doc = json.loads(text)
        doc["training"] = training
        with pytest.raises(GraphParseError, match="training indices"):
            parse_graph(json.dumps(doc))


def test_parse_rejects_huge_L_before_allocating():
    # A (10**12, 10**12) table cannot be allocated; the edge-count check
    # must reject the document before parse_graph tries.
    import json

    doc = json.loads(serialize_graph(make_regular(8, 1), TrainingAssignment((0,), 1)))
    doc["L"] = 10**12
    doc["edges"] = []
    with pytest.raises(GraphParseError, match="at least"):
        parse_graph(json.dumps(doc))



def test_parse_rejects_out_of_range_multiplicity_width_and_provenance():
    g, assignment = sw_rewire(64, 2, 0.1, 2, 14, 7)
    text = serialize_graph(g, assignment)
    # Above 2W+1 = 5, including values an int64 table cannot hold.
    for k in (6, 2**63 - 1, 2**63, 10**30):
        doc = json.loads(text)
        doc["edges"][0][2] = k
        with pytest.raises(GraphParseError, match="multiplicity"):
            parse_graph(json.dumps(doc))
    doc = json.loads(text)
    doc["W"] = 32
    with pytest.raises(GraphParseError, match="2W\\+2"):
        parse_graph(json.dumps(doc))
    for field, value in (
        ("p", 2.0), ("p", float("nan")), ("p", 10**400), ("c", 0), ("seed", -1),
        # Counts and seeds are integers, not floats or bools equal to one.
        ("c", 2.0), ("c", True), ("seed", 1.5),
    ):
        doc = json.loads(text)
        doc["provenance"][field] = value
        with pytest.raises(GraphParseError, match="provenance"):
            parse_graph(json.dumps(doc))


_FUZZ_TEXT = serialize_graph(*sw_rewire(16, 1, 0.3, 2, 4, 5))
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 3, 4, 16, 2**63 - 1, 2**63, 10**30, -(10**30)])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _replace_somewhere(data, node):
    """Replace one value, at a drawn depth, inside the JSON container ``node``."""
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        else:
            node[key] = data.draw(_JSON_VALUES)
            return


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_graph_fuzz_gives_graph_or_parse_error(data):
    doc = json.loads(_FUZZ_TEXT)
    for _ in range(data.draw(st.integers(0, 2))):
        _replace_somewhere(data, doc)
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        start = data.draw(st.integers(0, len(text)))
        stop = data.draw(st.integers(start, min(len(text), start + 6)))
        text = text[:start] + data.draw(st.text(max_size=6)) + text[stop:]
    try:
        graph, assignment = parse_graph(text)
    except GraphParseError:
        return
    assert isinstance(graph, CouplingGraph)
    assert isinstance(assignment, TrainingAssignment)


def test_chain_length_cap_rejects_before_allocating():
    # Just above the cap a dense table still fits in memory (33 MiB), so an
    # allocation before the check would show in the traced peak.
    import json
    import tracemalloc

    too_long = MAX_CHAIN_LENGTH + 2
    doc = json.loads(serialize_graph(make_regular(8, 1), TrainingAssignment((0,), 1)))
    doc["L"] = too_long
    doc["edges"] = [[m, m, 3] for m in range(too_long)]
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        for L in (too_long, 10**12):
            with pytest.raises(GraphError, match="exceeds the maximum"):
                make_regular(L, 1)
        with pytest.raises(GraphError, match="exceeds the maximum"):
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_graph_text_bound_covers_the_longest_document():
    # Every entry at its widest, [2046, 2046, 2047] with its comma: at
    # L = 2W + 2 = MAX_CHAIN_LENGTH a diagonal table of multiplicity
    # 2W + 1 = 2047 is a legal graph.  The header and a full training
    # list must fit in what the bound keeps beside the edges.
    L = MAX_CHAIN_LENGTH
    g = CouplingGraph(
        L=L,
        W=L // 2 - 1,
        mult=np.diag(np.full(L, L - 1)),
        provenance=Provenance(p=1 / 3, c=L, seed=(1 << 64) - 1),
    )
    text = serialize_graph(g, TrainingAssignment(tuple(range(L)), L))
    entries = re.findall(r"    \[\n(?:      \d+,?\n){3}    \],?\n", text)
    assert len(entries) == L
    assert max(map(len, entries)) <= coupling._GRAPH_CHARS_PER_EDGE
    assert len(text) - sum(map(len, entries)) <= coupling._MAX_GRAPH_CHARS - (
        coupling._GRAPH_CHARS_PER_EDGE * L**2
    )
