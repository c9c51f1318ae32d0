"""Property test: TAS tag tables against the eager set-based oracle.

Distillation, coverage, the tag matrix and the wrap-up set the weights and
aggregates every TAS node ends with, and the benchmark compares those bit for
bit. The package keeps tags as ``int`` bitmasks, the oracle as frozensets.
The package must make the same keep/discard decisions as the oracle, store
the same rows (masks decoded to node sets) with bit-equal payloads, read the
same covered nodes and disjointness off every prefix of the rows, produce
a byte-equal tag matrix (the LP input and the key of the remembered LP
solution), and wrap up to an equal c and a bit-equal aggregate after every
step and from every prefix, with the same number of LP solves. Table sizes include 63, 64, 65, 130
and 500 nodes, so masks cross 64-bit word and byte boundaries.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tas_oracle  # noqa: E402
from spsnet import diffusion  # noqa: E402
from spsnet.diffusion import TagTable, _cover, tas_distill, tas_wrapup  # noqa: E402
from tas_oracle import SetTable, mask, nodes  # noqa: E402
from spsnet.lp import SimplexError  # noqa: E402
from spsnet.sps import AggregateSums  # noqa: E402

KINDS = ("random", "union", "stored", "stored-plus", "covered", "partial")


def random_payload(rng, m, n_p):
    scale = 10.0 ** rng.uniform(-3, 3)
    return AggregateSums(rng.standard_normal((m, n_p)) * scale, rng.standard_normal((m, n_p, n_p)) * scale)


def next_tag(rng, kind, n_nodes, stored):
    """One incoming tag of the given kind, built from the stored tags.

    ``union`` nests stored rows inside the message, ``stored`` repeats a
    stored tag, ``stored-plus`` adds new nodes to one, ``covered`` takes a
    union of stored rows only (its residual is often empty), and ``partial``
    keeps part of a stored tag so nothing is subtracted from it.
    """
    def pick():
        return stored[int(rng.integers(len(stored)))]

    def some_nodes():
        return set(rng.choice(n_nodes, size=int(rng.integers(1, n_nodes + 1)), replace=False).tolist())

    if kind == "random":
        tag = some_nodes()
    elif kind == "union":
        tag = set().union(*(pick() for _ in range(int(rng.integers(1, 4))))) | some_nodes()
    elif kind == "stored":
        tag = set(pick())
    elif kind == "stored-plus":
        tag = set(pick()) | some_nodes()
    elif kind == "covered":
        tag = set().union(*(pick() for _ in range(int(rng.integers(1, 5)))))
    else:
        base = sorted(pick())
        tag = set(base[: max(1, len(base) // 2)]) | some_nodes()
    return frozenset(tag)


def wrapup_outcome(wrapup, table):
    """(c, aggregate, LP solves) of one wrap-up, or the SimplexError raised."""
    calls = []
    solve = diffusion.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "solve_lp", counting)
        try:
            weights, agg = wrapup(table)
        except SimplexError as err:
            return str(err), None, len(calls)
    return weights.c, agg, len(calls)


def same_payload(a, b) -> bool:
    return np.array_equal(a.vec, b.vec) and np.array_equal(a.mat, b.mat)


def oracle_prefix(oracle, n_rows):
    """A fresh oracle table holding the first ``n_rows`` rows of ``oracle``."""
    out = SetTable(oracle.owner, oracle.n_nodes, oracle.rows[0].payload)
    for row in oracle.rows[1:n_rows]:
        out.append(row.tag, row.payload)
    return out


def assert_same_tables(table, oracle):
    assert [nodes(r.tag) for r in table.rows] == [r.tag for r in oracle.rows]
    assert all(same_payload(a.payload, b.payload) for a, b in zip(table.rows, oracle.rows))
    for n_rows in range(1, len(table.rows) + 1):
        covered, disjoint = _cover(table.rows[:n_rows])
        prefix = oracle_prefix(oracle, n_rows)
        assert nodes(covered) == tas_oracle.coverage(prefix)
        assert disjoint == bool(tas_oracle.tag_matrix(prefix).sum(axis=0).max() <= 1)
    tags = tas_oracle.tag_matrix(oracle)
    got = table.tag_matrix()
    assert got.dtype == tags.dtype and got.shape == tags.shape and got.tobytes() == tags.tobytes()


def assert_same_wrapup(table, oracle):
    c, agg, solves = wrapup_outcome(tas_wrapup, table)
    c_ref, agg_ref, solves_ref = wrapup_outcome(tas_oracle.tas_wrapup, oracle)
    assert solves == solves_ref
    assert_same_outcome(c, agg, c_ref, agg_ref)
    return solves


def assert_same_outcome(c, agg, c_ref, agg_ref):
    if agg_ref is None:
        assert agg is None and c == c_ref  # both gave up with the same error
        return
    assert np.array_equal(c, c_ref)
    assert same_payload(agg, agg_ref)


@st.composite
def message_streams(draw):
    """A table's owner and size, payload shape, and 1-16 messages of mixed kinds."""
    n_nodes = draw(st.integers(1, 40) | st.sampled_from([63, 64, 65, 130, 500]))
    owner = draw(st.integers(0, n_nodes - 1))
    m = draw(st.integers(2, 3))
    n_p = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=16))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_nodes, owner, m, n_p, kinds, seed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(message_streams())
def test_tag_table_steps_match_eager_oracle(stream):
    n_nodes, owner, m, n_p, kinds, seed = stream
    rng = np.random.default_rng(seed)
    local = random_payload(rng, m, n_p)
    table = TagTable(owner, n_nodes, local.copy())
    oracle = SetTable(owner, n_nodes, local.copy())
    assert_same_wrapup(table, oracle)
    for kind in kinds:
        tag = next_tag(rng, kind, n_nodes, [r.tag for r in oracle.rows])
        payload = random_payload(rng, m, n_p)
        before = payload.copy()
        stored = {r.tag for r in oracle.rows}
        row = tas_distill(table, mask(*tag), payload)
        row_ref = tas_oracle.tas_distill(oracle, tag, payload)
        assert (row is None) == (row_ref is None)
        if row is not None:
            assert nodes(row.tag) == row_ref.tag and row_ref.tag not in stored
            assert same_payload(row.payload, row_ref.payload)
        assert same_payload(payload, before)  # the incoming message is never mutated
        assert_same_tables(table, oracle)
        assert_same_wrapup(table, oracle)
    for n_rows in range(1, len(table.rows) + 1):  # every prefix, as a round view reads it
        c, agg, _ = wrapup_outcome(lambda t: tas_wrapup(t, n_rows), table)
        c_ref, agg_ref, _ = wrapup_outcome(tas_oracle.tas_wrapup, oracle_prefix(oracle, n_rows))
        assert_same_outcome(c, agg, c_ref, agg_ref)


def count_isub(monkeypatch) -> list:
    calls = []
    isub = AggregateSums.isub

    def counting(self, other):
        calls.append(1)
        return isub(self, other)

    monkeypatch.setattr(AggregateSums, "isub", counting)
    return calls


def test_discarded_message_touches_no_payload(monkeypatch):
    rng = np.random.default_rng(5)
    table = TagTable(0, 6, random_payload(rng, 2, 2))
    table.append(mask(1, 2), random_payload(rng, 2, 2))
    calls = count_isub(monkeypatch)
    assert tas_distill(table, mask(0, 1, 2), random_payload(rng, 2, 2)) is None
    assert calls == []
    row = tas_distill(table, mask(0, 1, 2, 5), random_payload(rng, 2, 2))
    assert row.tag == mask(5)
    assert len(calls) == 2  # both stored rows, in insertion order


def test_table_that_becomes_overlapping_matches_oracle():
    rng = np.random.default_rng(11)
    local = random_payload(rng, 3, 2)
    table = TagTable(2, 7, local.copy())
    oracle = SetTable(2, 7, local.copy())
    steps = [frozenset({0, 1}), frozenset({3}), frozenset({1, 4}), frozenset({4, 5, 6}), frozenset({0, 6})]
    disjoint = [True, True, False, False, False]
    solves = []
    for tag, flag in zip(steps, disjoint):
        payload = random_payload(rng, 3, 2)
        table.append(mask(*tag), payload.copy())
        oracle.append(tag, payload.copy())
        assert _cover(table.rows)[1] is flag
        assert_same_tables(table, oracle)
        solves.append(assert_same_wrapup(table, oracle))
    assert solves == [0, 0, 1, 1, 1]  # every new overlapping tag matrix is solved once
    c, _, again = wrapup_outcome(tas_wrapup, table)
    assert again == 0 and np.all(c == 1.0)  # {2}, {0,1}, {3}, {4,5,6} cover every node once


def test_tag_table_rejects_unknown_node_ids():
    for n_nodes in (4, 8, 64, 65):
        table = TagTable(0, n_nodes, AggregateSums.zeros(2, 1))
        # empty, negative, and masks with a bit at or above n_nodes
        for bad in (0, -1, -(1 << 2), 1 << n_nodes, mask(1, n_nodes + 5), (1 << (n_nodes + 1)) - 1):
            with pytest.raises(ValueError):
                table.append(bad, AggregateSums.zeros(2, 1))
        assert _cover(table.rows) == (mask(0), True) and len(table.rows) == 1
        table.append((1 << n_nodes) - 2, AggregateSums.zeros(2, 1))  # every other node: accepted
        assert _cover(table.rows) == ((1 << n_nodes) - 1, True)


def test_tag_table_stores_a_collection_of_node_ids_as_its_mask():
    for n_nodes in (4, 64, 65, 130):
        table = TagTable(0, n_nodes, AggregateSums.zeros(2, 1))
        ids = [1, n_nodes - 1]
        row = table.append(frozenset(ids), AggregateSums.zeros(2, 1))
        assert type(row.tag) is int and row.tag == mask(*ids)
        assert table.append(np.array([2]), AggregateSums.zeros(2, 1)).tag == mask(2)
        with pytest.raises(ValueError):
            table.append(ids, AggregateSums.zeros(2, 1))  # the same tag again
        for bad in ([], [-1], [n_nodes], {1, n_nodes + 3}):
            with pytest.raises(ValueError):
                table.append(bad, AggregateSums.zeros(2, 1))
        assert _cover(table.rows)[0] == mask(0, 1, 2, n_nodes - 1)
