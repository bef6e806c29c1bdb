"""Load generation: Poisson arrivals (Section 6.5's methodology).

"Similar to [17], we model a load generator that generates requests with a
Poisson distribution" — i.e. exponential inter-arrival times around a mean
arrival time, swept from the SLA-compliant region into saturation.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError

__all__ = ["poisson_arrivals"]


def poisson_arrivals(
    mean_interarrival_ms: float,
    num_requests: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Arrival timestamps (ms) of a Poisson request stream.

    ``mean_interarrival_ms`` is the paper's x-axis in Fig 17 ("arrival
    time"): smaller means a higher offered load.
    """
    if not (math.isfinite(mean_interarrival_ms) and mean_interarrival_ms > 0):
        raise ConfigError("mean inter-arrival time must be positive and finite")
    if num_requests <= 0:
        raise ConfigError("request count must be positive")
    gaps = rng.exponential(mean_interarrival_ms, size=num_requests)
    return np.cumsum(gaps)
