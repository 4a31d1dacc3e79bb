from __future__ import annotations

import json

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


def test_make_regular_column_sums():
    for L, W in [(6, 2), (16, 1), (33, 4), (64, 2)]:
        g = make_regular(L, W)
        assert np.all(g.mult.sum(axis=0) == 2 * W + 1)


def test_cluster_of_examples():
    assert cluster_of(0, 32, 2) == {28, 29, 30, 31, 0, 1, 2, 3, 4}
    assert cluster_of(32, 64, 2) == set(range(28, 37))
    assert cluster_of(0, 9, 2) == set(range(9))


def test_cluster_of_out_of_range_center():
    with pytest.raises(IndexError):
        cluster_of(32, 32, 2)
    with pytest.raises(IndexError):
        cluster_of(-1, 32, 2)


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
        rewired, assignment = sw_rewire(g, 0.0, 2, 14, seed)
        assert np.array_equal(rewired.mult, g.mult)
        assert assignment.tau == 14
        assert len(assignment.training_set) == 14


def test_sw_rewire_p_one_crosses_all_cluster_edges():
    g = make_regular(64, 2)
    win0 = cluster_of(0, 64, 2)
    win1 = cluster_of(32, 64, 2)
    rewired, _ = sw_rewire(g, 1.0, 2, 14, 3)
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
        rewired, _ = sw_rewire(g, 0.1, 2, 14, seed)
        moved[seed] = np.maximum(before - rewired.mult, 0).sum()
    se = moved.std(ddof=1) / np.sqrt(moved.size)
    assert abs(moved.mean() - 9.0) <= 3.0 * se


def test_sw_rewire_invariants_on_random_graphs():
    # 1000 rewired graphs: column sums, total mass, integer multiplicities.
    g = make_regular(64, 2)
    for seed in range(1000):
        rewired, assignment = sw_rewire(g, 0.1, 2, 14, seed)
        assert np.all(rewired.mult.sum(axis=0) == 5)
        assert int(rewired.mult.sum()) == 64 * 5
        assert np.all(rewired.mult >= 0)
        assert len(assignment.training_set) == 14
        assert len(set(assignment.training_set)) == 14


def test_sw_rewire_parameter_validation():
    # domain checks raise plain ValueError, structural ones GraphError
    g = make_regular(64, 2)
    with pytest.raises(ValueError):
        sw_rewire(g, 1.5, 2, 14, 0)
    with pytest.raises(GraphError):
        sw_rewire(g, 0.1, 1, 14, 0)
    with pytest.raises(GraphError):
        sw_rewire(g, 0.1, 3, 14, 0)  # 64 % 3 != 0
    with pytest.raises(GraphError):
        sw_rewire(make_regular(16, 2), 0.1, 2, 4, 0)  # L/c = 8 = 4W overlaps


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
    g = make_regular(64, 2)
    for seed in range(100):
        rewired, assignment = sw_rewire(g, 0.1, 2, 14, seed)
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
    with pytest.raises(ValueError):
        assign_training(g, 33, np.random.default_rng(0))


def test_to_base_matrix_values():
    g = make_regular(32, 2)
    B = to_base_matrix(g)
    nz = B.bsq[g.mult > 0]
    assert np.allclose(nz, 0.2, rtol=0, atol=0)
    rewired, _ = sw_rewire(make_regular(64, 2), 1.0, 2, 14, 5)
    B2 = to_base_matrix(rewired)
    if np.any(rewired.mult == 2):
        assert np.allclose(B2.bsq[rewired.mult == 2], 0.4, rtol=0, atol=0)
    assert np.all(np.abs(B2.bsq.sum(axis=0) - 1.0) <= 1e-12)


def test_base_matrix_rejects_weights_outside_unit_interval():
    for bad in (-0.5, 1.5, np.nan):
        with pytest.raises(GraphError, match="squared weights"):
            BaseMatrix(L=2, bsq=np.array([[bad, 0.0], [1.0 - bad, 1.0]]))


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


def test_serialize_round_trip_with_provenance():
    g, assignment = sw_rewire(make_regular(64, 2), 0.1, 2, 14, 7)
    text = serialize_graph(g, assignment)
    g2, a2 = parse_graph(text)
    assert g2 == g
    assert a2 == assignment
    assert g2.provenance == Provenance(p=0.1, c=2, seed=7)


def test_serialize_deterministic_bytes():
    g, assignment = sw_rewire(make_regular(64, 2), 0.1, 2, 14, 42)
    assert serialize_graph(g, assignment) == serialize_graph(g, assignment)


def test_parse_rejects_truncated_document():
    g, assignment = sw_rewire(make_regular(64, 2), 0.1, 2, 14, 9)
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
    doc = json.loads(text)
    doc["training"] = [8]
    with pytest.raises(GraphParseError):
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
    g, assignment = sw_rewire(make_regular(64, 2), 0.1, 2, 14, 7)
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
    for field, value in (("p", 2.0), ("p", float("nan")), ("p", 10**400), ("c", 0), ("seed", -1)):
        doc = json.loads(text)
        doc["provenance"][field] = value
        with pytest.raises(GraphParseError, match="provenance"):
            parse_graph(json.dumps(doc))


_FUZZ_TEXT = serialize_graph(*sw_rewire(make_regular(16, 1), 0.3, 2, 4, 5))
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
