"""Two-photon sector probabilities of time-bin entangled pairs, in closed form.

A pump train coherent over n pulses prepares the pair state
sum_k |k>_s |k>_i / sqrt(n), k = 1..n: both photons always share a slot,
with a uniform envelope. A delay-line interferometer with one-slot path
difference maps each single-photon ket

    |k>  ->  t0 |k> + t1 |k+1>

with taps (t0, t1) = (1/2, e^{i phi}/2) in the monitored output port and
(1/2, -e^{i phi}/2) in the discarded one. The map is applied per mode. The
photon routed to the discarded port is tracked as its own outcome rather
than renormalized away (50% post-selection per photon).

After one map per mode the amplitude of signal slot j, idler slot k is
non-zero only for |j - k| <= 1, and the sector norms follow by hand:

* Matched (j = k), with s = +1 for the two monitored ports and s = -1 when
  exactly one photon is discarded (its delayed tap changes sign). The two
  edge slots have one path each, of weight 1/(16n). Each of the n-1 inner
  slots has two paths, both photons early or both late, which interfere:
  |1 + s e^{i(phi_s + phi_i)}|^2 / (16n). Summed,

      matched(s) = [2 + 2(n-1)(1 + s cos(phi_s + phi_i))] / (16n).

* One slot apart, signal first or idler first: n slot pairs, each of one
  path with amplitude (1/4)/sqrt(n), so 1/16 at any phase.

So with both photons kept the sectors are matched(+1), 1/16 and 1/16. A
port pair with one photon discarded holds matched(-1) + 1/8, and with both
discarded matched(+1) + 1/8. Since matched(+1) + matched(-1) = 1/4, the six
outcomes sum to 1 and each photon is kept with probability 1/2. The tests
check every sector against a brute-force enumeration of the kets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhasePair:
    """Interferometer phases for the two arms. Raw values, any real number."""

    signal: float
    idler: float


def _matched(n_slots: int, phases: PhasePair, sign: int) -> float:
    """Norm of the slot diagonal: sign +1 with both photons in their
    monitored ports, -1 with one of them discarded. Needs at least two slots
    to carry any entanglement."""
    if n_slots < 2:
        raise ValueError(f"n_slots must be >= 2, got {n_slots}")
    inner = 1 + sign * math.cos(phases.signal + phases.idler)
    return (2 + 2 * (n_slots - 1) * inner) / (16 * n_slots)


def sector_probabilities(
    n_slots: int, phases: PhasePair
) -> tuple[float, float, float, float, float]:
    """Joint pair-outcome probabilities after both interferometers.

    Returns (matched, signal first, idler first, signal kept only, idler
    kept only); the neither-kept remainder completes the distribution. With
    both photons kept they share a slot (matched) or sit one slot apart,
    the signal or the idler photon first.
    """
    one_kept = _matched(n_slots, phases, -1) + 1 / 8
    return (_matched(n_slots, phases, 1), 1 / 16, 1 / 16, one_kept, one_kept)


def ideal_visibility(n_slots: int) -> float:
    """Fringe visibility of the lossless, noise-free n-slot state.

    The two edge slots of the coherence window never interfere (each is fed
    by a single path), which caps the visibility at (n-1)/n.
    """
    if n_slots < 2:
        raise ValueError(f"n_slots must be >= 2, got {n_slots}")
    return (n_slots - 1) / n_slots
