"""Parameter handling: loss arithmetic, defaults, validation, JSON round trip."""

import json
import math
from dataclasses import replace
from typing import get_type_hints

import pytest

from timebinsim import (
    ChannelParams,
    SourceParams,
    config_from_dict,
    config_to_dict,
    dark_per_slot,
    default_config,
    effective_alpha,
    validate_config,
)
from timebinsim.params import require_valid

# Direct evaluation: 10^(-(9+6.0)/10) * 0.2 and 10^(-(9+6.7)/10) * 0.2.
ALPHA_SIGNAL = 6.324555320336759e-3
ALPHA_IDLER = 5.383069607853834e-3

# (section, field) of every float field of the source and both arms.
FLOAT_FIELDS = [
    (section, name)
    for section, cls in (("source", SourceParams), ("signal", ChannelParams), ("idler", ChannelParams))
    for name, kind in get_type_hints(cls).items()
    if kind is float
]


class TestEffectiveAlpha:
    def test_baseline_arms(self, baseline):
        assert effective_alpha(baseline.signal) == pytest.approx(ALPHA_SIGNAL, rel=1e-12)
        assert effective_alpha(baseline.idler) == pytest.approx(ALPHA_IDLER, rel=1e-12)

    def test_interferometer_loss_only_when_requested(self, baseline):
        ch = replace(baseline.signal, interferometer_loss_db=3.0)
        bare = effective_alpha(ch)
        with_mzi = effective_alpha(ch, include_interferometer=True)
        assert bare == pytest.approx(ALPHA_SIGNAL, rel=1e-12)
        assert with_mzi == pytest.approx(ALPHA_SIGNAL * 10 ** (-0.3), rel=1e-12)

    def test_linear_in_detector_efficiency(self, baseline):
        doubled = replace(baseline.signal, detector_efficiency=0.4)
        assert effective_alpha(doubled) == pytest.approx(2 * ALPHA_SIGNAL, rel=1e-12)

    @pytest.mark.parametrize("extra_db", [0.1, 1.0, 3.0, 10.0, 30.0])
    def test_monotone_in_every_loss_term(self, baseline, extra_db):
        base = effective_alpha(baseline.signal, include_interferometer=True)
        for field in ("out_coupling_db", "channel_loss_db", "interferometer_loss_db"):
            worse = replace(
                baseline.signal, **{field: getattr(baseline.signal, field) + extra_db}
            )
            assert effective_alpha(worse, include_interferometer=True) < base

    def test_lossless_channel_is_unity(self):
        ch = ChannelParams(
            out_coupling_db=0.0,
            channel_loss_db=0.0,
            detector_efficiency=1.0,
            dark_rate_hz=0.0,
        )
        assert effective_alpha(ch, include_interferometer=True) == 1.0


class TestDarkPerSlot:
    def test_baseline_arms(self, baseline):
        assert dark_per_slot(baseline.signal, 1.0) == pytest.approx(5e-8, rel=1e-12)
        assert dark_per_slot(baseline.idler, 1.0) == pytest.approx(1e-8, rel=1e-12)

    def test_scales_with_rep_rate(self, baseline):
        # Same dark rate spread over twice as many slots per second.
        assert dark_per_slot(baseline.signal, 2.0) == pytest.approx(2.5e-8, rel=1e-12)


class TestDefaultConfig:
    def test_frozen_operating_point(self, baseline):
        src = baseline.source
        assert src.pair_coeff == 5.78
        assert src.noise_coeff == 1.03
        assert src.bandwidth_time_product == pytest.approx(0.75, rel=1e-12)
        assert src.rep_rate_ghz == 1.0
        assert src.peak_power_w == pytest.approx(5.037e-3, rel=1e-12)
        assert baseline.coherence_slots == 1000
        assert baseline.signal.dark_rate_hz == 50.0
        assert baseline.idler.dark_rate_hz == 10.0
        assert not baseline.interferometers_present

    def test_validates_clean(self, baseline):
        assert validate_config(baseline) == []


class TestValidation:
    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda c: replace(c, source=replace(c.source, pair_coeff=0.0)), "pair_coeff"),
            (lambda c: replace(c, source=replace(c.source, noise_coeff=-1.0)), "noise_coeff"),
            (lambda c: replace(c, source=replace(c.source, bandwidth_ghz=0.0)), "bandwidth_ghz"),
            (lambda c: replace(c, source=replace(c.source, peak_power_w=-1e-3)), "peak_power_w"),
            (
                lambda c: replace(c, signal=replace(c.signal, detector_efficiency=1.5)),
                "signal.detector_efficiency",
            ),
            (
                lambda c: replace(c, idler=replace(c.idler, dark_rate_hz=-5.0)),
                "idler.dark_rate_hz",
            ),
            (
                lambda c: replace(c, idler=replace(c.idler, channel_loss_db=-0.1)),
                "idler.channel_loss_db",
            ),
            (lambda c: replace(c, coherence_slots=1), "coherence_slots"),
            (lambda c: replace(c, num_pulses=0), "num_pulses"),
            (lambda c: replace(c, seed=-1), "seed"),
        ],
    )
    def test_violations_name_the_field(self, baseline, mutate, needle):
        bad = validate_config(mutate(baseline))
        assert len(bad) == 1
        assert needle in bad[0]

    def test_seed_must_fit_one_key_word(self, baseline):
        # numpy splits 2**32 + 5 into the words (5, 1), so its block 0 would
        # be seed 5's block 1.
        assert validate_config(replace(baseline, seed=2**32 - 1)) == []
        bad = validate_config(replace(baseline, seed=2**32))
        assert len(bad) == 1
        assert bad[0].startswith("seed must be in [0, 2**32)")

    @pytest.mark.parametrize("field, low", [("coherence_slots", 2), ("num_pulses", 1)])
    def test_counts_fit_int64(self, baseline, field, low):
        # The sampler holds run slots as numpy int64. Validation only: no
        # run starts at these sizes.
        assert validate_config(replace(baseline, **{field: 2**63 - 1})) == []
        bad = validate_config(replace(baseline, **{field: 2**63}))
        assert bad == [f"{field} must be in [{low}, 2**63), got {2**63}"]

    def test_dark_rate_below_one_per_slot(self, baseline):
        # Darks are drawn as a per-slot probability: at or above the pulse
        # rate (1 GHz here) there is none to draw.
        rate = baseline.source.rep_rate_ghz * 1e9
        below = replace(baseline.signal, dark_rate_hz=0.999 * rate)
        assert validate_config(replace(baseline, signal=below)) == []
        for name in ("signal", "idler"):
            for dark in (rate, 1.5e9):
                channel = replace(getattr(baseline, name), dark_rate_hz=dark)
                bad = validate_config(replace(baseline, **{name: channel}))
                assert len(bad) == 1
                assert bad[0].startswith(f"{name}.dark_rate_hz must be < source.rep_rate_ghz")

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "section, name", FLOAT_FIELDS, ids=[f"{section}.{name}" for section, name in FLOAT_FIELDS]
    )
    def test_non_finite_field_named(self, baseline, section, name, value):
        # The Python API takes any float; a NaN passes every range check, and
        # an infinity may fail a later check that names another field.
        params = replace(getattr(baseline, section), **{name: value})
        with pytest.raises(ValueError) as err:
            require_valid(replace(baseline, **{section: params}))
        expected = f"invalid config: {section}.{name} must be a finite real number, got {value!r}"
        assert str(err.value) == expected

    def test_multiple_violations_all_reported(self, baseline):
        cfg = replace(
            baseline,
            coherence_slots=0,
            num_pulses=-3,
            signal=replace(baseline.signal, detector_efficiency=2.0),
        )
        bad = validate_config(cfg)
        assert len(bad) == 3


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, baseline):
        cfg = replace(
            baseline, seed=99, signal=replace(baseline.signal, interferometer_loss_db=math.pi / 2)
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_top_level_key_rejected(self, baseline):
        data = config_to_dict(baseline)
        data["detectors"] = 2
        with pytest.raises(ValueError, match="detectors"):
            config_from_dict(data)

    def test_unknown_nested_key_names_the_section(self, baseline):
        data = config_to_dict(baseline)
        data["source"]["wavelength_nm"] = 1545.4
        with pytest.raises(ValueError, match="source.*wavelength_nm"):
            config_from_dict(data)

    def test_missing_section_rejected(self, baseline):
        data = config_to_dict(baseline)
        del data["idler"]
        with pytest.raises(ValueError, match="idler"):
            config_from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            config_from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("source", "pair_coeff", None, r"^source\.pair_coeff is missing"),
            ("source", "pair_coeff", "5.78", r"^source\.pair_coeff must be a finite real number"),
            ("source", "peak_power_w", math.nan, r"^source\.peak_power_w must be a finite real number"),
            ("source", "bandwidth_ghz", math.inf, r"^source\.bandwidth_ghz must be a finite"),
            ("source", "noise_coeff", 10**400, r"^source\.noise_coeff must be a finite"),
            ("signal", "dark_rate_hz", True, r"^signal\.dark_rate_hz must be a finite real number"),
            ("idler", "interferometer_loss_db", None, r"^idler\.interferometer_loss_db is missing"),
            (None, "num_pulses", 1000.0, r"^num_pulses must be an integer"),
            (None, "coherence_slots", True, r"^coherence_slots must be an integer"),
            (None, "seed", None, r"^seed is missing"),
            (None, "seed", "7", r"^seed must be an integer"),
            (None, "phase_signal", 0.0, r"^unknown keys in config: .*phase_signal"),
            (None, "interferometers_present", 1, r"^interferometers_present must be true or false"),
        ],
    )
    def test_malformed_field_named(self, baseline, section, key, value, message):
        data = config_to_dict(baseline)
        target = data if section is None else data[section]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(ValueError, match=message):
            config_from_dict(data)

    def test_integer_accepted_as_real(self, baseline):
        data = config_to_dict(baseline)
        data["idler"]["interferometer_loss_db"] = 0
        data["signal"]["dark_rate_hz"] = 50
        parsed = config_to_dict(config_from_dict(data))
        assert json.dumps(parsed) == json.dumps(config_to_dict(baseline))
