"""Answers computed apart from the program, with NumPy only.

The program's own ground truth (``repro.traffic.groundtruth``) is not
used: heavy hitters, distinct flows and DDoS victims come straight from
the trace's packet columns.
"""

from __future__ import annotations

import numpy as np

#: Every check below must hold on every epoch of every run.
HH_RECALL_FLOOR = 0.9
HH_PRECISION_FLOOR = 0.9
#: LC estimate vs the exact distinct-flow count, relative.
CARDINALITY_TOLERANCE = 0.05
#: TwoLevel's distinct-source estimate for each victim, relative.
DDOS_SPREAD_TOLERANCE = 0.25


def heavy_hitters(trace, threshold: float) -> set[int]:
    """64-bit keys of flows with more than ``threshold`` bytes."""
    keys, inverse = np.unique(trace.key64, return_inverse=True)
    flow_bytes = np.bincount(inverse, weights=trace.sizes)
    return set(keys[flow_bytes > threshold].tolist())


def distinct_flows(trace) -> int:
    return int(np.unique(trace.key64).size)


def ddos_victims(trace, threshold: float) -> dict[int, int]:
    """``{destination IP: distinct sources}`` above ``threshold``."""
    pairs = np.array(
        [(packet.flow.dst_ip, packet.flow.src_ip) for packet in trace.packets],
        dtype=np.int64,
    )
    pairs = np.unique(pairs, axis=0)
    destinations, fan_in = np.unique(pairs[:, 0], return_counts=True)
    return {
        int(dst): int(count)
        for dst, count in zip(destinations, fan_in)
        if count > threshold
    }


def flow_names(trace) -> dict[int, str]:
    """64-bit key -> ``src:port->dst:port/proto``, as ``serve`` renders
    flows in its query answers."""

    def ip(value: int) -> str:
        return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))

    names = {}
    for packet in trace.packets:
        flow = packet.flow
        if flow.key64 not in names:
            names[flow.key64] = (
                f"{ip(flow.src_ip)}:{flow.src_port}->"
                f"{ip(flow.dst_ip)}:{flow.dst_port}/{flow.proto}"
            )
    return names


def score(reported: set, true: set) -> tuple[float, float]:
    """(recall, precision); an empty side scores 1.0 only if both are."""
    hits = len(reported & true)
    recall = hits / len(true) if true else float(not reported)
    precision = hits / len(reported) if reported else float(not true)
    return recall, precision


def hh_ok(reported: set, true: set) -> bool:
    recall, precision = score(reported, true)
    return (
        bool(true)
        and recall >= HH_RECALL_FLOOR
        and precision >= HH_PRECISION_FLOOR
    )
