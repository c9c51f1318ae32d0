"""Command-line front end.

Subcommands:

    topology         generate a deployment and dump it as JSON (+ DOT)
    diffuse          run one protocol, write the traffic log
    region           evaluate one confidence region, write JSON + CSV summary
    coverage         Monte Carlo coverage of the true parameter
    tradeoff         averaged volume-versus-traffic curves per protocol
    success-rate     fraction of random trees on which TAS beats MF
    traffic-predict  closed-form traffic totals without simulating

All randomness derives from the seed (``--seed`` or the config file), so
every invocation is reproducible byte for byte. Config files are JSON
validated against the schema shipped in ``spsnet/data``. A flag that
overrides a config entry names it as its ``dest``, ``config.<path>``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .analysis import compare
from .diffusion import CONSENSUS_SCHEMES
from .experiments import (
    PROTOCOLS,
    ExperimentConfig,
    _resolve,
    _schema,
    build_topology,
    run_coverage,
    run_region,
    run_success_rate,
    run_tradeoff,
    simulate,
)
from .topology import ConnectivityError, TreeTopology, diameter, save_topology


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (see the shipped schema)")
    common.add_argument("--seed", type=int, dest="config.seed", metavar="SEED", help="seed override")
    common.add_argument("--out", help="output directory (default: config output_dir or '.')")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")

    topo_flags = argparse.ArgumentParser(add_help=False)
    topo_flags.add_argument("--kind", choices=("rgg", "tree", "binary", "clustered", "complete"),
                            dest="config.topology.kind")
    topo_flags.add_argument("--n-nodes", type=int, dest="config.topology.n_nodes", metavar="N_NODES")
    topo_flags.add_argument("--depth", type=int, dest="config.topology.depth", metavar="DEPTH")
    topo_flags.add_argument("--n-clusters", type=int, dest="config.topology.n_clusters", metavar="N_CLUSTERS")

    parser = argparse.ArgumentParser(
        prog="spsnet",
        description="Distributed confidence regions for sensor networks: "
                    "simulate diffusion protocols, evaluate exact-coverage regions, "
                    "and account for every transmitted scalar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", parents=[common, topo_flags],
                       help="generate a deployment and write topology.json/.dot")
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("diffuse", parents=[common, topo_flags],
                       help="run one protocol and write the traffic log")
    p.add_argument("--protocol", choices=tuple(PROTOCOLS), dest="config.diffusion.protocol")
    p.add_argument("--rounds", type=int, dest="config.diffusion.rounds", metavar="ROUNDS")
    p.add_argument("--iterations", type=int, dest="config.diffusion.iterations", metavar="ITERATIONS")
    p.add_argument("--scheme", choices=CONSENSUS_SCHEMES, dest="config.diffusion.scheme")
    p.set_defaults(func=_cmd_diffuse)

    p = sub.add_parser("region", parents=[common],
                       help="evaluate one confidence region on a grid")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("coverage", parents=[common],
                       help="Monte Carlo coverage of the true parameter")
    p.add_argument("--trials", type=int, dest="config.trials", metavar="TRIALS")
    p.add_argument("--protocol", choices=tuple(PROTOCOLS), dest="config.diffusion.protocol")
    p.add_argument("--all-nodes", action="store_const", const=True, dest="config.all_nodes",
                   help="evaluate membership at every node, not just the designated one")
    p.set_defaults(func=_cmd_study, runner=run_coverage)

    p = sub.add_parser("tradeoff", parents=[common],
                       help="averaged volume-versus-traffic curves per protocol")
    p.set_defaults(func=_cmd_study, runner=run_tradeoff)

    p = sub.add_parser("success-rate", parents=[common],
                       help="fraction of random trees where TAS moves fewer scalars than MF")
    p.set_defaults(func=_cmd_study, runner=run_success_rate)

    p = sub.add_parser("traffic-predict", parents=[common],
                       help="closed-form traffic totals for a topology, no simulation")
    p.add_argument("--topology", choices=("binary", "tree", "clustered"), default="binary")
    p.add_argument("--N", type=int, dest="N", help="total node count")
    p.add_argument("--np", type=int, dest="config.model.n_p", metavar="N_P", help="parameter dimension")
    p.add_argument("--m", type=int, dest="config.sps.m", metavar="M", help="number of sign-perturbed sums")
    p.add_argument("--depth", type=int, help="binary tree depth (alternative to --N)")
    p.add_argument("--n-clusters", type=int, dest="n_clusters")
    p.set_defaults(func=_cmd_traffic_predict)

    return parser


def _with_flags(raw: dict, args) -> dict:
    """``raw`` with every given ``config.<path>`` flag written into it. A
    section that is not an object is left alone, for the schema to report."""
    for dest, value in vars(args).items():
        *path, key = dest.split(".")
        cursor = raw if path[:1] == ["config"] and value is not None else None
        for part in path[1:]:
            cursor = cursor.setdefault(part, {}) if isinstance(cursor, dict) else None
        if isinstance(cursor, dict):
            cursor[key] = value
    return raw


def _load_config(args) -> ExperimentConfig:
    """The ``--config`` file with ``--out`` and every given ``config.<path>``
    flag written over it."""
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    if args.out:
        raw["output_dir"] = args.out
    _with_flags(raw, args)
    if "seed" not in raw:
        raise ValueError("a seed is required (config file or --seed)")
    return ExperimentConfig(raw)


def _out_dir(config: ExperimentConfig) -> str:
    out = config.cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _print_summary(summary: dict) -> None:
    parts = []
    for key, value in summary.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        elif isinstance(value, (str, int, bool)) or value is None:
            parts.append(f"{key}={value}")
    print(" ".join(parts))


def _cmd_topology(args) -> int:
    config = _load_config(args)
    tcfg = config.cfg["topology"]
    bundle = build_topology(config.seed, tcfg)
    out = _out_dir(config)
    save_topology(bundle.schedule or bundle.graph, os.path.join(out, "topology.json"),
                  dot_path=os.path.join(out, "topology.dot"))
    g = bundle.graph
    radius = "" if bundle.radius is None else f" radius={bundle.radius}"
    print(f"kind={tcfg['kind']} n_nodes={g.n_nodes} edges={len(g.edges)} diameter={diameter(g)}{radius}")
    return 0


def _cmd_diffuse(args) -> int:
    config = _load_config(args)
    run, _, _, _ = simulate(config)
    out = _out_dir(config)
    traffic = run.traffic
    n = traffic.n_nodes
    if args.format == "json":
        path = os.path.join(out, "traffic.json")
        payload = {
            "protocol": traffic.protocol,
            "total_scalars": traffic.total_scalars,
            "per_node": [int(v) for v in traffic.per_node_totals],
            "rounds": sorted({rnd for rnd, _, _, _ in traffic.events}),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        path = os.path.join(out, "traffic.csv")
        traffic.to_csv(path)
    per_node_mean = traffic.total_scalars / n
    complete_nodes = sum(bool((run.weights(k) == 1.0).all()) for k in range(n))
    print(f"protocol={traffic.protocol} n_nodes={n} total_scalars={traffic.total_scalars} "
          f"per_node_mean={per_node_mean:.6g} rounds={run.rounds_run} complete_nodes={complete_nodes}")
    print(f"wrote {path}")
    return 0


def _cmd_region(args) -> int:
    config = _load_config(args)
    result, meta = run_region(config)
    out = _out_dir(config)
    json_path = os.path.join(out, "region.json")
    payload = result.to_json_dict()
    payload["meta"] = meta
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths = [json_path]
    if args.format == "csv":
        csv_path = os.path.join(out, "region_summary.csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["volume", "dim", "bound_lo", "bound_hi"])
            for row in result.csv_summary_rows():
                writer.writerow(row)
        paths.append(csv_path)
    print(f"volume={result.volume:.6g} member_cells={result.member_count} "
          f"m={meta['m']} q={meta['q']} source={meta['source']}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_study(args) -> int:
    """coverage, tradeoff or success-rate: run the study, write its record
    under the record's name, print the summary and any per-size rates."""
    config = _load_config(args)
    record = args.runner(config)
    path = os.path.join(_out_dir(config), f"{record.name}.{args.format}")
    (record.to_json if args.format == "json" else record.to_csv)(path)
    _print_summary(record.summary)
    for key, rate in sorted(record.summary.get("rates", {}).items()):
        print(f"rate[{key}]={rate:.3f}")
    print(f"wrote {path}")
    return 0


def _cmd_traffic_predict(args) -> int:
    # a tree comes from the loaded config; binary and clustered read the flags over the schema's defaults
    if args.topology == "tree":
        cfg = _load_config(args).cfg
    else:
        cfg = _resolve(_with_flags({}, args), _schema())
    n_p, m = cfg["model"]["n_p"], cfg["sps"]["m"]
    if args.topology == "binary":
        if args.depth is not None:
            depth = args.depth
        elif args.N is not None:
            depth = (args.N + 1).bit_length() - 2
            if 2 ** (depth + 1) - 1 != args.N:
                raise ValueError(f"--N {args.N} is not a complete binary tree size (2^(L+1)-1)")
        else:
            raise ValueError("binary prediction needs --N or --depth")
        report = compare("binary", n_p, m, depth=depth)
    elif args.topology == "clustered":
        if args.N is None or args.n_clusters is None:
            raise ValueError("clustered prediction needs --N and --n-clusters")
        report = compare("clustered", n_p, m, n_nodes=args.N, n_clusters=args.n_clusters)
    else:
        tree = build_topology(cfg["seed"], cfg["topology"]).schedule
        if not isinstance(tree, TreeTopology):
            raise ValueError("tree prediction needs a config with topology.kind = tree or binary")
        report = compare("tree", n_p, m, level_counts=tree.level_counts, childless_counts=tree.childless_counts)

    if args.format == "json":
        payload = {
            "topology": report.topology,
            "n_nodes": report.n_nodes,
            "n_p": n_p,
            "m": m,
            "tas_total_scalars": report.tas,
            "mf_total_scalars": report.mf,
            "winner": report.winner.upper(),
        }
        if report.critical_size is not None:
            payload["critical_size"] = report.critical_size
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"topology {report.topology} n_nodes {report.n_nodes} n_p {n_p} m {m}")
    print(f"TAS {report.tas}")
    print(f"MF {report.mf}")
    if report.critical_size is not None:
        print(f"critical_size {report.critical_size:.3f}")
    print(f"winner {report.winner.upper()}")
    return 0


def _user_errors() -> tuple[type[Exception], ...]:
    """The errors ``main`` reports as ``error: ...``, among them a random
    deployment that does not connect. A config validation error can only come
    from a loaded ``jsonschema``, so a command that loads no config never
    imports it."""
    schema = sys.modules.get("jsonschema")
    return (ValueError, KeyError, OSError, ConnectivityError) + ((schema.ValidationError,) if schema else ())


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _user_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
