"""The coverage trial's protocol dispatch as the package first wrote it.

The package now runs every protocol through one table,
``experiments.run_protocol``, which hands the SPS test each node's weights,
an aggregate on demand, the rounds run and the traffic log. This oracle keeps
the old shape: one if/elif chain that runs the general-graph runner for every
protocol on every topology and returns, per requested node, a (weights,
aggregate) pair, with PF and MF from the dense runners in ``diffusion_oracle``
and TAS from its eager runner, which wraps up every table before it returns.
Tests require the table to reproduce it bit for bit on general graphs. Two
differences are on purpose: the oracle reports consensus weights clipped into
[0, 1], while the consensus state is the sum weighted by the unclipped
N * W^t, and the table reports the unclipped weights; and a TAS aggregate
here is the eager payload sum, and a consensus aggregate the state stepped
through the data, while the table builds both from the weights with
``tie_exact_aggregate``, so they agree only within rounding.
"""

from __future__ import annotations

import numpy as np

import diffusion_oracle
import tradeoff_oracle
from spsnet.diffusion import run_consensus
from spsnet.sps import batch_aggregate, local_aggregate, truncated_aggregate


def trial_state(protocol, graph, samples, signs, diff, nodes):
    """One trial's per-node (weights, aggregate) plus rounds run and traffic."""
    n = graph.n_nodes
    if protocol == "full":
        agg = batch_aggregate(samples, signs)
        ones = np.ones(n)
        return {k: (ones, agg) for k in nodes}, 0, None
    if protocol == "local":
        out = {}
        for k in nodes:
            c = np.zeros(n)
            c[k] = 1.0
            out[k] = (c, local_aggregate(samples, k, signs.column(k)))
        return out, 0, None
    if protocol in ("pf", "mf"):
        run = diffusion_oracle.run_pf if protocol == "pf" else diffusion_oracle.run_mf
        res = run(graph, samples, max_rounds=diff["rounds"])
        out = {}
        for k in nodes:
            c = res.known[k].astype(float)
            out[k] = (c, truncated_aggregate(samples, signs, c))
        return out, res.rounds_run, res.traffic
    if protocol == "tas":
        res = diffusion_oracle.run_tas(graph, samples, signs, rounds=diff["rounds"], wrapup_nodes=nodes)
        out = {k: (res.weights[k], res.aggregates[k]) for k in nodes}
        return out, res.rounds_run, res.traffic
    if protocol == "consensus":
        res = run_consensus(graph, samples, signs, iterations=diff["iterations"], scheme=diff["scheme"])
        eager = tradeoff_oracle.eager_consensus(graph, samples, signs, diff["iterations"], diff["scheme"])
        eff = eager.weights()
        out = {k: (np.clip(eff[k], 0.0, 1.0), eager.state(k)) for k in nodes}
        return out, res.rounds_run, res.traffic
    raise ValueError(f"unknown protocol {protocol!r}")
