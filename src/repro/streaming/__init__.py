"""Streaming substrate: edge orders and sliding-window reordering."""

from repro.streaming.orders import EDGE_ORDERS, edge_stream
from repro.streaming.window import SlidingWindowReorder, windowed_stream

__all__ = [
    "EDGE_ORDERS",
    "edge_stream",
    "SlidingWindowReorder",
    "windowed_stream",
]
