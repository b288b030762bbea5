"""Exact two-photon amplitudes for time-bin entangled states.

A pump train coherent over n pulses prepares the pair state
sum_k |k>_s |k>_i / sqrt(n), k = 1..n: both photons always share a slot,
with a uniform envelope. A delay-line interferometer with one-slot path
difference maps each single-photon ket

    |k>  ->  t0 |k> + t1 |k+1>

with taps (t0, t1) = (1/2, e^{i phi}/2) in the monitored output port and
(1/2, -e^{i phi}/2) in the discarded one. The map is applied per mode. The
photon routed to the discarded port is tracked as its own outcome rather
than renormalized away (50% post-selection per photon).

After one map per mode, amp[j, k] (signal in slot j, idler in slot k) is
non-zero only for |j - k| <= 1, so the state is held as those three bands.
The envelope is uniform, so each band is a few runs of equal amplitude:
O(1) memory and work in n, where a dense array would need O(n^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

Taps = tuple[complex, complex]
# A band as runs of (amplitude, slot count), in slot order.
Band = tuple[tuple[complex, int], ...]


@dataclass(frozen=True)
class PhasePair:
    """Interferometer phases for the two arms. Raw values, any real number."""

    signal: float
    idler: float


def _taps(phase: float, kept: bool = True) -> Taps:
    """(direct, delayed) amplitudes of one interferometer output port."""
    delayed = 0.5 * cmath.exp(1j * phase)
    return 0.5, delayed if kept else -delayed


def _bands(n_slots: int, signal: Taps, idler: Taps) -> tuple[Band, Band, Band]:
    """Amplitude bands of the n-slot pair state after one map per mode.

    Returns (matched, signal_first, idler_first): amp[j, j] over the n+1
    output slots (the delayed path spills one slot past the window), and
    amp[j, j+1] and amp[j+1, j] over n slots each. The envelope is uniform,
    so each band is held as runs of (amplitude, slot count): the matched
    band differs only in its two edge slots, each fed by a single path.
    Needs at least two slots to carry any entanglement.
    """
    if n_slots < 2:
        raise ValueError(f"n_slots must be >= 2, got {n_slots}")
    c = 1.0 / math.sqrt(n_slots)
    (s_direct, s_delayed), (i_direct, i_delayed) = signal, idler
    direct = c * s_direct * i_direct
    delayed = c * s_delayed * i_delayed
    matched = ((direct, 1), (direct + delayed, n_slots - 1), (delayed, 1))
    signal_first = ((c * s_direct * i_delayed, n_slots),)
    idler_first = ((c * s_delayed * i_direct, n_slots),)
    return matched, signal_first, idler_first


def _norm(*bands: Band) -> float:
    return sum(count * abs(amp) ** 2 for band in bands for amp, count in band)


def fringe(n_slots: int, phases: PhasePair) -> float:
    """Matched-coincidence probability after both interferometers.

    The norm of the slot diagonal with both photons in their monitored
    ports. Depends on the phases only through their sum; the closed form
    is [2 + 2(n-1)(1 + cos(phi_s + phi_i))] / (16 n), bounded by the double
    post-selection at 1/4.
    """
    matched, _, _ = _bands(n_slots, _taps(phases.signal), _taps(phases.idler))
    return _norm(matched)


def sector_probabilities(
    n_slots: int, phases: PhasePair
) -> tuple[float, float, float, float, float]:
    """Joint pair-outcome probabilities after both interferometers.

    Returns (matched, signal first, idler first, signal kept only, idler
    kept only); the neither-kept remainder completes the distribution. With
    both photons kept they share a slot (matched) or sit one slot apart,
    the signal or the idler photon first. Each sector is the band norm
    under its pair of port taps. The six outcomes must sum to 1: that is
    checked, not assumed.
    """
    s_kept, s_lost = _taps(phases.signal), _taps(phases.signal, kept=False)
    i_kept, i_lost = _taps(phases.idler), _taps(phases.idler, kept=False)
    both = [_norm(band) for band in _bands(n_slots, s_kept, i_kept)]
    p_s_only = _norm(*_bands(n_slots, s_kept, i_lost))
    p_i_only = _norm(*_bands(n_slots, s_lost, i_kept))
    p_none = _norm(*_bands(n_slots, s_lost, i_lost))
    if abs(sum(both) + p_s_only + p_i_only + p_none - 1.0) > 1e-9:
        raise AssertionError("interferometer port probabilities do not sum to 1")
    return (*both, p_s_only, p_i_only)


def ideal_visibility(n_slots: int) -> float:
    """Fringe visibility of the lossless, noise-free n-slot state.

    The two edge slots of the coherence window never interfere (each is fed
    by a single path), which caps the visibility at (n-1)/n.
    """
    if n_slots < 2:
        raise ValueError(f"n_slots must be >= 2, got {n_slots}")
    return (n_slots - 1) / n_slots
