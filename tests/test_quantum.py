"""Closed-form sector probabilities against a brute-force enumeration oracle.

`analytic.sector_probabilities` gives each pair outcome in closed form: the
matched sector [2 + 2(n-1)(1 + s cos(phi_s + phi_i))] / (16 n), with s = -1
when one photon is discarded, 1/16 for each one-slot-apart sector, and 1/8
more for each port pair with a photon discarded. The oracle below expands
every product ket by hand with plain Python complex arithmetic and never
touches those formulas, so the two implementations share nothing but the
physics.
"""

import cmath
import math

import numpy as np
import pytest

from timebinsim import PhasePair, ideal_visibility, sector_probabilities


def brute_force_sectors(
    n: int, phi_s: float, phi_i: float
) -> tuple[float, float, float, float, float]:
    """(matched, signal first, idler first, signal only, idler only) by
    direct ket enumeration.

    Each photon leaves through the kept port, with taps (1/2, e^{i phi}/2),
    or the discarded one, whose delayed tap carries the opposite sign.
    """
    amp: dict[tuple[bool, bool, int, int], complex] = {}
    c = 1.0 / math.sqrt(n)
    for k in range(1, n + 1):
        for kept_s in (True, False):
            sign_s = 1.0 if kept_s else -1.0
            for slot_s, amp_s in ((k, 0.5), (k + 1, sign_s * 0.5 * cmath.exp(1j * phi_s))):
                for kept_i in (True, False):
                    sign_i = 1.0 if kept_i else -1.0
                    for slot_i, amp_i in ((k, 0.5), (k + 1, sign_i * 0.5 * cmath.exp(1j * phi_i))):
                        key = (kept_s, kept_i, slot_s, slot_i)
                        amp[key] = amp.get(key, 0.0) + c * amp_s * amp_i

    def norm(kept_s, kept_i, delays=(-1, 0, 1)):
        return sum(
            abs(v) ** 2
            for (ks, ki, s, i), v in amp.items()
            if (ks, ki) == (kept_s, kept_i) and i - s in delays
        )

    return (
        norm(True, True, delays=(0,)),
        norm(True, True, delays=(1,)),
        norm(True, True, delays=(-1,)),
        norm(True, False),
        norm(False, True),
    )


def all_five_outcomes(n: int, phases: PhasePair) -> float:
    """Sum of both kept, signal only, idler only and neither kept.

    Both kept is the matched and the two one-apart sectors. Neither kept is
    "both kept" with both delayed taps negated, i.e. both phases shifted by
    pi.
    """
    flipped = PhasePair(phases.signal + math.pi, phases.idler + math.pi)
    return sum(sector_probabilities(n, phases)) + sum(sector_probabilities(n, flipped)[:3])


# Frozen from the oracle: brute_force_sectors(2, 0, 0)[0] and (2, pi, 0)[0],
# i.e. (1 + 4 + 1)/32 and (1 + 0 + 1)/32.
FRINGE_2_CONSTRUCTIVE = 0.1875
FRINGE_2_DESTRUCTIVE = 0.0625


class TestEntangledState:
    """The pair state needs two slots to carry any entanglement."""

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_too_few_slots_rejected(self, n):
        with pytest.raises(ValueError, match=">= 2"):
            sector_probabilities(n, PhasePair(0.0, 0.0))


class TestApplyMzi:
    """One-slot-delay interferometers applied per mode."""

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 10**15])
    @pytest.mark.parametrize(
        "phases", [(0.0, 0.0), (1.1, -2.2), (math.pi, math.pi / 3), (97.0, -3.5)]
    )
    def test_probability_conserved_at_each_stage(self, n, phases):
        # The six outcomes sum to 1, and each interferometer keeps exactly
        # half of its photon whatever happens to the other one.
        pair = PhasePair(*phases)
        matched, signal_first, idler_first, signal_only, idler_only = sector_probabilities(n, pair)
        both_kept = matched + signal_first + idler_first
        assert abs(all_five_outcomes(n, pair) - 1.0) < 1e-12
        assert both_kept + signal_only == pytest.approx(0.5, abs=1e-12)
        assert both_kept + idler_only == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 50])
    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi])
    def test_kept_norm_after_both_is_phase_dependent(self, n, theta):
        # Interference in the monitored ports: the retained norm is the
        # matched closed form plus a constant 1/8 of one-slot-apart pairs
        # (2n off-diagonal paths of weight 1/(16n) each), not a flat 1/4.
        matched, signal_first, idler_first, _, _ = sector_probabilities(n, PhasePair(theta, 0.0))
        both_kept = matched + signal_first + idler_first
        expected = (2 + 2 * (n - 1) * (1 + math.cos(theta))) / (16 * n) + 0.125
        assert both_kept == pytest.approx(expected, abs=1e-12)
        assert both_kept - matched == pytest.approx(0.125, abs=1e-12)


class TestSectorProbabilities:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
    @pytest.mark.parametrize("phi_s, phi_i", [(0.0, 0.0), (0.8, 0.0), (2.0, -0.5), (3.9, 2.1)])
    def test_matches_brute_force_enumeration(self, n, phi_s, phi_i):
        got = sector_probabilities(n, PhasePair(phi_s, phi_i))
        want = brute_force_sectors(n, phi_s, phi_i)
        assert got == pytest.approx(want, abs=1e-14)

    # The closed forms cost the same at any slot count, 10**15 included.
    @pytest.mark.parametrize("n", [10**5, 10**6, 10**15])
    def test_long_coherence_visibility_law(self, n):
        top = sector_probabilities(n, PhasePair(0.0, 0.0))
        bottom = sector_probabilities(n, PhasePair(math.pi, 0.0))
        visibility = (top[0] - bottom[0]) / (top[0] + bottom[0])
        assert visibility == pytest.approx((n - 1) / n, rel=1e-9)
        for phases in (PhasePair(0.0, 0.0), PhasePair(math.pi, 0.0)):
            assert abs(all_five_outcomes(n, phases) - 1.0) < 1e-12


class TestFringe:
    # The fringe is the matched sector, sector_probabilities(n, phases)[0].

    def test_frozen_two_slot_values(self):
        assert sector_probabilities(2, PhasePair(0.0, 0.0))[0] == pytest.approx(
            FRINGE_2_CONSTRUCTIVE, abs=1e-15
        )
        assert sector_probabilities(2, PhasePair(math.pi, 0.0))[0] == pytest.approx(
            FRINGE_2_DESTRUCTIVE, abs=1e-15
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
    @pytest.mark.parametrize("phi_s, phi_i", [(0.0, 0.0), (0.8, 0.0), (2.0, -0.5), (3.9, 2.1)])
    def test_matches_brute_force_enumeration(self, n, phi_s, phi_i):
        # The fringe law, 16 n P = 2 + 2 (n - 1) (1 + cos(phi_s + phi_i)),
        # against the oracle itself: TestSectorProbabilities already holds
        # sector_probabilities to the oracle, sector by sector.
        law = (2 + 2 * (n - 1) * (1 + math.cos(phi_s + phi_i))) / (16 * n)
        assert brute_force_sectors(n, phi_s, phi_i)[0] == pytest.approx(law, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 55, 64])
    def test_closed_form_residual(self, n):
        theta = np.linspace(0.0, 2 * math.pi, 100)
        for th in theta:
            got = sector_probabilities(n, PhasePair(th, 0.0))[0]
            assert abs(16 * n * got - 2 - 2 * (n - 1) * (1 + math.cos(th))) < 1e-12

    def test_depends_on_phase_sum_only(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a, b, shift = rng.uniform(-6, 6, size=3)
            assert sector_probabilities(n, PhasePair(a, b))[0] == pytest.approx(
                sector_probabilities(n, PhasePair(a + shift, b - shift))[0], abs=1e-12
            )

    def test_periodic_in_two_pi(self):
        for n in (2, 9, 30):
            for th in (0.1, 2.5, 5.0):
                assert abs(
                    sector_probabilities(n, PhasePair(th, 0.0))[0] - sector_probabilities(n, PhasePair(th + 2 * math.pi, 0.0))[0]
                ) < 1e-12

    def test_post_selection_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            value = sector_probabilities(n, PhasePair(*rng.uniform(-8, 8, size=2)))[0]
            assert 0.0 <= value <= 0.25

    def test_extremes_at_zero_and_pi(self):
        for n in (2, 6, 41):
            top = sector_probabilities(n, PhasePair(0.0, 0.0))[0]
            bottom = sector_probabilities(n, PhasePair(math.pi, 0.0))[0]
            for th in np.linspace(0.1, 3.0, 7):
                mid = sector_probabilities(n, PhasePair(th, 0.0))[0]
                assert bottom - 1e-14 <= mid <= top + 1e-14


class TestIdealVisibility:
    @pytest.mark.parametrize("n, expected", [(2, 0.5), (3, 2 / 3), (10, 0.9), (64, 63 / 64)])
    def test_edge_slot_cap(self, n, expected):
        assert ideal_visibility(n) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 17, 64])
    def test_consistent_with_fringe_extremes(self, n):
        top = sector_probabilities(n, PhasePair(0.0, 0.0))[0]
        bottom = sector_probabilities(n, PhasePair(math.pi, 0.0))[0]
        assert (top - bottom) / (top + bottom) == pytest.approx(
            ideal_visibility(n), abs=1e-12
        )

    def test_too_few_slots_rejected(self):
        with pytest.raises(ValueError):
            ideal_visibility(1)


class TestPhasePair:
    def test_raw_values_kept_for_arithmetic(self):
        pair = PhasePair(7.0, -3.0)
        assert (pair.signal, pair.idler) == (7.0, -3.0)
