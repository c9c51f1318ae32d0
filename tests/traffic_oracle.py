"""Reference traffic log: every ``record`` updates running per-node and
per-round totals, which the views read back.

The package's ``TrafficLog`` keeps running per-round sums only and sums the
events per node on read; ``test_traffic_log.py`` checks that every view
equals this log's.
"""

import csv

import numpy as np


class TrafficLog:
    """Append-only transmission log for one protocol run: one event per
    ``record`` call, per-node and per-round totals kept as Python ints."""

    def __init__(self, protocol: str, n_nodes: int):
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.events: list[tuple[int, int, int, int]] = []
        self._per_node = [0] * n_nodes
        self._per_round: dict[int, int] = {}

    def record(self, round_: int, node: int, scalars: int, tag_bits: int = 0):
        if scalars < 0 or tag_bits < 0:
            raise ValueError("traffic amounts must be non-negative")
        round_, node, scalars = int(round_), int(node), int(scalars)
        self.events.append((round_, node, scalars, int(tag_bits)))
        self._per_node[node] += scalars
        self._per_round[round_] = self._per_round.get(round_, 0) + scalars

    @property
    def total_scalars(self) -> int:
        return sum(self._per_node)

    @property
    def per_node_totals(self) -> np.ndarray:
        return np.array(self._per_node, dtype=np.int64)

    def total_through_round(self, round_: int) -> int:
        return sum(total for rnd, total in self._per_round.items() if rnd <= round_)

    def to_csv(self, path) -> None:
        """CSV rows sorted by (round, node); cumulative_scalars is the
        sender's running total after the event."""
        running = np.zeros(self.n_nodes, dtype=np.int64)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["protocol", "round", "node_id", "scalars_sent", "cumulative_scalars", "tag_bits"])
            for rnd, node, scalars, bits in sorted(self.events, key=lambda e: (e[0], e[1])):
                running[node] += scalars
                w.writerow([self.protocol, rnd, node, scalars, int(running[node]), bits])
