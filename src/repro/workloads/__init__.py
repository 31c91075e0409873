"""Arrival-sequence generators for the maintenance experiments."""

from repro.workloads.arrivals import (
    StreamParams,
    bursty_arrivals,
    periodic_arrivals,
    stochastic_arrivals,
    uniform_arrivals,
)

__all__ = [
    "StreamParams",
    "bursty_arrivals",
    "periodic_arrivals",
    "stochastic_arrivals",
    "uniform_arrivals",
]
