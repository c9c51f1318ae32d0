"""Property test: TAS tag tables against the eager set-based oracle.

Distillation, coverage, the tag matrix and the wrap-up set the weights every
TAS node ends with, and its aggregate is built from those weights. The
package keeps tags as ``int`` bitmasks and no payload; the oracle keeps
frozensets, each row with a payload, which it subtracts and sums eagerly.
Every message carries the sum of the local terms of the nodes its tag names,
as in a run. The package must make the same keep/discard decisions as the
oracle, store the same rows (masks decoded to node sets), read the same
covered nodes and disjointness off every prefix of the rows, produce a
byte-equal tag matrix (the LP input), and wrap up to an equal c after every
step and from every prefix, with the same number of LP solves as the oracle
wrapping up a fresh table, except that it solves none where the disjoint rows
cover every node the table names; where the oracle's LP raises ``SimplexError``,
the package returns the 0/1 weights of the disjoint rows instead. The
oracle's kept residuals must be close to the local sums of their tags, and
its wrapped-up aggregate close to the one ``tie_exact_aggregate`` builds
from c. Table sizes include 63, 64, 65, 130 and 500 nodes, so masks cross
64-bit word and byte boundaries. The table's running ``covered`` and
``disjoint`` must equal those read off all its rows, and further streams are built so that every example hits both cases that
distillation decides without scanning the rows: a tag sharing no node with
the table, and a tag containing every node of a disjoint table.
"""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tas_oracle  # noqa: E402
from result_checks import sums_close  # noqa: E402
from spsnet import diffusion  # noqa: E402
from spsnet.diffusion import TagTable, tas_distill, tas_wrapup  # noqa: E402
from diffusion_oracle import _cover  # noqa: E402
from tas_oracle import SetTable, mask, nodes  # noqa: E402
from spsnet.lp import LpProblem, SimplexError, solve_lp  # noqa: E402
from spsnet.model import Samples  # noqa: E402
from spsnet.sps import AggregateSums, draw_sign_matrix, tie_exact_aggregate, truncated_aggregate  # noqa: E402

KINDS = ("random", "union", "stored", "stored-plus", "covered", "partial")
ATOL = 1e-10  # payload sums of unit-scale terms over at most 500 nodes


def local_terms(rng, n_nodes, m, n_p):
    """(samples, signs) of a network: standard normal regressors and measurements."""
    samples = Samples(rng.standard_normal((n_nodes, n_p)), rng.standard_normal(n_nodes))
    return samples, draw_sign_matrix(m, n_nodes, int(rng.integers(2**32)))


def payload_of(data, tag) -> AggregateSums:
    """The sum of the local terms of the nodes a frozenset tag names."""
    samples, signs = data
    c = np.zeros(len(samples))
    c[list(tag)] = 1.0
    return truncated_aggregate(samples, signs, c)


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
    """(what one wrap-up returned, LP solves), or (the SimplexError's message, LP solves)."""
    calls = []
    solve = diffusion.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "solve_lp", counting)
        try:
            out = wrapup(table)
        except SimplexError as err:
            return str(err), len(calls)
    return out, len(calls)


def oracle_prefix(oracle, n_rows):
    """A fresh oracle table holding the first ``n_rows`` rows of ``oracle``."""
    out = SetTable(oracle.owner, oracle.n_nodes, oracle.rows[0].payload)
    for row in oracle.rows[1:n_rows]:
        out.append(row.tag, row.payload)
    return out


def assert_same_tables(table, oracle):
    assert [nodes(t) for t in table.tags] == [r.tag for r in oracle.rows]
    assert (table.covered, table.disjoint) == _cover(table.tags)
    for n_rows in range(1, len(table.tags) + 1):
        covered, disjoint = _cover(table.tags[:n_rows])
        prefix = oracle_prefix(oracle, n_rows)
        assert nodes(covered) == tas_oracle.coverage(prefix)
        assert disjoint == bool(tas_oracle.tag_matrix(prefix).sum(axis=0).max() <= 1)
    tags = tas_oracle.tag_matrix(oracle)
    got = diffusion._unpack(table.tags, table.n_nodes)
    assert got.dtype == tags.dtype and got.shape == tags.shape and got.tobytes() == tags.tobytes()


def assert_same_wrapup(table, oracle, data):
    """The package's wrap-up solves afresh on every call, so the oracle wraps
    up a fresh copy of its table, whose remembered solution is empty. The
    package solves no LP where the disjoint rows cover every node the table
    names, and the oracle's LP must then give those rows' 0/1 weights."""
    got, solves = wrapup_outcome(tas_wrapup, table)
    prefix = oracle_prefix(oracle, len(oracle.rows))
    ref, solves_ref = wrapup_outcome(tas_oracle.tas_wrapup, prefix)
    greedy_covers = tas_oracle.disjoint_rows_weights(prefix).sum() == len(tas_oracle.coverage(prefix))
    assert solves == (0 if greedy_covers else solves_ref)
    assert_same_outcome(got, ref, data, prefix)
    return solves


def assert_same_outcome(got, ref, data, prefix):
    if isinstance(ref, str):  # the oracle's LP gave up; the package falls back to disjoint rows
        assert np.array_equal(got, tas_oracle.disjoint_rows_weights(prefix))
        return
    weights, agg = ref
    assert np.array_equal(got, weights.c)
    assert sums_close(tie_exact_aggregate(*data, got), agg, atol=ATOL)


def distill_both(table, oracle, tag, data):
    """Distill one message into the table and into the oracle, and require the
    same decision and the same stored rows; a kept residual carries the local
    sum of its tag."""
    stored = {r.tag for r in oracle.rows}
    kept = tas_distill(table, mask(*tag))
    row_ref = tas_oracle.tas_distill(oracle, tag, payload_of(data, tag))
    assert (kept is None) == (row_ref is None)
    if kept is not None:
        assert nodes(kept) == row_ref.tag and row_ref.tag not in stored
        assert kept == table.tags[-1] and table.merged[-1] is False
        assert sums_close(row_ref.payload, payload_of(data, row_ref.tag), atol=ATOL)
    assert_same_tables(table, oracle)


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
    data = local_terms(rng, n_nodes, m, n_p)
    table = TagTable(owner, n_nodes)
    oracle = SetTable(owner, n_nodes, payload_of(data, {owner}))
    assert_same_wrapup(table, oracle, data)
    for kind in kinds:
        tag = next_tag(rng, kind, n_nodes, [r.tag for r in oracle.rows])
        distill_both(table, oracle, tag, data)
        assert_same_wrapup(table, oracle, data)
    for n_rows in range(1, len(table.tags) + 1):  # every prefix, as a round view reads it
        got, _ = wrapup_outcome(lambda t: tas_wrapup(t, n_rows), table)
        prefix = oracle_prefix(oracle, n_rows)
        ref, _ = wrapup_outcome(tas_oracle.tas_wrapup, prefix)
        assert_same_outcome(got, ref, data, prefix)


def covering_tag(rng, kind, n_nodes, oracle):
    """``fresh``: only nodes no stored tag names; ``superset``: every stored
    node and some fresh ones; ``exact``: every stored node. With no fresh node
    left, each is ``exact``."""
    covered = tas_oracle.coverage(oracle)
    free = sorted(set(range(n_nodes)) - covered)
    if kind == "exact" or not free:
        return covered
    extra = frozenset(rng.choice(free, size=int(rng.integers(1, len(free) + 1)), replace=False).tolist())
    return extra if kind == "fresh" else covered | extra


@settings(max_examples=200, deadline=None, derandomize=True)
@given(message_streams(), st.lists(st.sampled_from(("fresh", "superset", "exact") + KINDS), max_size=16))
def test_distill_shortcuts_match_eager_oracle(stream, kinds):
    """Streams that open with a fresh tag and then a superset of the table,
    so that both cases distillation decides without a scan come up in every
    example; which case a message hits is read off the oracle table first."""
    n_nodes, owner, m, n_p, _, seed = stream
    rng = np.random.default_rng(seed)
    data = local_terms(rng, n_nodes, m, n_p)
    table = TagTable(owner, n_nodes)
    oracle = SetTable(owner, n_nodes, payload_of(data, {owner}))
    hits = {"fresh": 0, "covering": 0}
    for kind in ["fresh", "superset"] + kinds:
        if kind in KINDS:
            tag = next_tag(rng, kind, n_nodes, [r.tag for r in oracle.rows])
        else:
            tag = covering_tag(rng, kind, n_nodes, oracle)
        covered = tas_oracle.coverage(oracle)
        if not tag & covered:
            hits["fresh"] += 1
        elif tas_oracle.tag_matrix(oracle).sum(axis=0).max() <= 1 and tag >= covered:
            hits["covering"] += 1
        distill_both(table, oracle, tag, data)
    assert hits["covering"] >= 1 and (hits["fresh"] >= 1 or n_nodes == 1)
    assert_same_wrapup(table, oracle, data)


def test_table_that_becomes_overlapping_matches_oracle():
    data = local_terms(np.random.default_rng(11), 7, 3, 2)
    table = TagTable(2, 7)
    oracle = SetTable(2, 7, payload_of(data, {2}))
    steps = [frozenset({0, 1}), frozenset({3}), frozenset({1, 4}), frozenset({4, 5, 6}), frozenset({0, 6})]
    disjoint = [True, True, False, False, False]
    solves = []
    for tag, flag in zip(steps, disjoint):
        table.append(mask(*tag))
        oracle.append(tag, payload_of(data, tag))
        assert _cover(table.tags)[1] is flag
        assert_same_tables(table, oracle)
        solves.append(assert_same_wrapup(table, oracle, data))
    # only the overlapping table whose disjoint rows {2}, {0,1}, {3} miss node 4 is solved
    assert solves == [0, 0, 1, 0, 0]
    weights, again = wrapup_outcome(tas_wrapup, table)
    assert again == 0 and np.all(weights == 1.0)  # {2}, {0,1}, {3}, {4,5,6} cover every node once
    with pytest.MonkeyPatch.context() as mp:  # a solve that gives up: the oracle raises, the package falls back
        mp.setattr(diffusion, "solve_lp", functools.partial(diffusion.solve_lp, max_iterations=1))
        prefix = oracle_prefix(oracle, 4)
        ref, _ = wrapup_outcome(tas_oracle.tas_wrapup, prefix)
        assert ref == "simplex did not converge within 1 iterations"
        got, solves = wrapup_outcome(lambda t: tas_wrapup(t, 4), table)
        assert solves == 1
        assert_same_outcome(got, ref, data, prefix)


@st.composite
def wrapup_tables(draw):
    """An owner, a node count and 0-10 further tags of 1-4 nodes. About half
    the tags name only nodes named before, so overlapping tables whose
    disjoint rows still cover every named node are common."""
    n_nodes = draw(st.integers(1, 12))
    owner = draw(st.integers(0, n_nodes - 1))
    named, tags = {owner}, []
    for _ in range(draw(st.integers(0, 10))):
        pool = sorted(named) if draw(st.booleans()) else range(n_nodes)
        tag = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
        named |= tag
        tags.append(mask(*tag))
    return owner, n_nodes, tags


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wrapup_tables())
def test_wrapup_skips_the_lp_only_where_the_disjoint_rows_are_its_optimum(case):
    owner, n_nodes, tags = case
    table = TagTable(owner, n_nodes)
    for tag in tags:
        if tag not in table.tags:
            table.append(tag)
    taken, covered = set(), set()
    for tag in table.tags:
        if not nodes(tag) & taken:
            taken |= nodes(tag)
        covered |= nodes(tag)
    got, solves = wrapup_outcome(tas_wrapup, table)
    assert solves == (0 if taken == covered else 1)
    tagmat = np.zeros((len(table.tags), n_nodes))
    for r, tag in enumerate(table.tags):
        tagmat[r, sorted(nodes(tag))] = 1.0
    b, _ = solve_lp(LpProblem(tagmat))
    c = b @ tagmat
    c[np.abs(c) <= 1e-9] = 0.0
    c[np.abs(c - 1.0) <= 1e-9] = 1.0
    assert got.tobytes() == c.tobytes()  # where no LP ran, the LP gives the disjoint rows' mask
    if taken == covered:
        assert np.array_equal(np.flatnonzero(got), sorted(covered))


def test_tag_table_rejects_unknown_node_ids():
    for n_nodes in (4, 8, 64, 65):
        table = TagTable(0, n_nodes)
        # empty, negative, and masks with a bit at or above n_nodes
        for bad in (0, -1, -(1 << 2), 1 << n_nodes, mask(1, n_nodes + 5), (1 << (n_nodes + 1)) - 1):
            with pytest.raises(ValueError):
                table.append(bad)
        assert _cover(table.tags) == (mask(0), True) and table.tags == [mask(0)]
        table.append((1 << n_nodes) - 2)  # every other node: accepted
        assert _cover(table.tags) == ((1 << n_nodes) - 1, True)


def test_tag_table_stores_a_collection_of_node_ids_as_its_mask():
    for n_nodes in (4, 64, 65, 130):
        # a payload may be passed, as the benchmark's self-test does, and is ignored
        table = TagTable(0, n_nodes, AggregateSums.zeros(2, 1))
        ids = [1, n_nodes - 1]
        tag = table.append(frozenset(ids), AggregateSums.zeros(2, 1))
        assert type(tag) is int and tag == mask(*ids) == table.tags[-1]
        assert vars(table).keys() == {"owner", "n_nodes", "tags", "merged", "covered", "disjoint"}  # no payload
        assert table.merged == [False, False]
        assert table.append(np.array([2])) == mask(2)
        with pytest.raises(ValueError):
            table.append(ids)  # the same tag again
        for bad in ([], [-1], [n_nodes], {1, n_nodes + 3}):
            with pytest.raises(ValueError):
                table.append(bad)
        assert _cover(table.tags)[0] == mask(0, 1, 2, n_nodes - 1)
