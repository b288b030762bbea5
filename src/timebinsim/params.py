"""Experiment parameters: source, detection channels, run configuration.

Unit conventions used throughout the package: pump power in W, bandwidth in
GHz, pulse width in ns, so the bandwidth-time product is dimensionless.
Per-pulse photon numbers and per-slot probabilities are dimensionless.
"""

import math
from dataclasses import asdict, dataclass, fields, is_dataclass


@dataclass(frozen=True)
class SourceParams:
    """Pulsed pair source with a quadratic pair yield and linear noise yield.

    pair_coeff : float
        Quadratic coefficient of the correlated-pair mean per pulse,
        in 1/W^2 (per unit bandwidth-time product).
    noise_coeff : float
        Linear coefficient of the uncorrelated-noise mean per pulse, 1/W.
    bandwidth_ghz : float
        Detection filter bandwidth, GHz.
    pulse_width_ns : float
        Pump pulse duration, ns.
    rep_rate_ghz : float
        Pump repetition rate, GHz (slots per ns).
    peak_power_w : float
        Coupled pump peak power, W.
    """

    pair_coeff: float
    noise_coeff: float
    bandwidth_ghz: float
    pulse_width_ns: float
    rep_rate_ghz: float
    peak_power_w: float

    @property
    def bandwidth_time_product(self) -> float:
        return self.bandwidth_ghz * self.pulse_width_ns


@dataclass(frozen=True)
class ChannelParams:
    """One detection arm: losses in dB, detector efficiency, dark rate."""

    out_coupling_db: float
    channel_loss_db: float
    detector_efficiency: float
    dark_rate_hz: float
    interferometer_loss_db: float = 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated run."""

    source: SourceParams
    signal: ChannelParams
    idler: ChannelParams
    coherence_slots: int = 1000
    num_pulses: int = 10_000_000
    seed: int = 12345
    interferometers_present: bool = False


def effective_alpha(channel: ChannelParams, include_interferometer: bool = False) -> float:
    """Overall detection probability for a photon entering this arm.

    Combines the dB loss terms with the detector efficiency. The factor-1/2
    interferometer post-selection is not included here; it is modeled
    explicitly where interferometers appear. Only the interferometer's
    excess (component) loss enters, and only when requested.
    """
    loss_db = channel.out_coupling_db + channel.channel_loss_db
    if include_interferometer:
        loss_db += channel.interferometer_loss_db
    return 10.0 ** (-loss_db / 10.0) * channel.detector_efficiency


def dark_per_slot(channel: ChannelParams, rep_rate_ghz: float) -> float:
    """Dark-count probability in one time slot of the pulse train."""
    return channel.dark_rate_hz / (rep_rate_ghz * 1e9)


def arm_detection(
    cfg: ExperimentConfig, include_interferometer: bool
) -> tuple[float, float, float, float]:
    """(alpha_signal, alpha_idler, dark_signal, dark_idler) per time slot."""
    rate = cfg.source.rep_rate_ghz
    return (
        effective_alpha(cfg.signal, include_interferometer),
        effective_alpha(cfg.idler, include_interferometer),
        dark_per_slot(cfg.signal, rate),
        dark_per_slot(cfg.idler, rate),
    )


def default_config() -> ExperimentConfig:
    """Baseline configuration of the reference pair-source experiment.

    1 GHz train of 60 ps pulses, 12.5 GHz detection bandwidth, pump set to
    the mu = 0.004 operating point.
    """
    source = SourceParams(
        pair_coeff=5.78,
        noise_coeff=1.03,
        bandwidth_ghz=12.5,
        pulse_width_ns=0.060,
        rep_rate_ghz=1.0,
        peak_power_w=5.037e-3,
    )
    signal = ChannelParams(
        out_coupling_db=9.0,
        channel_loss_db=6.0,
        detector_efficiency=0.2,
        dark_rate_hz=50.0,
    )
    idler = ChannelParams(
        out_coupling_db=9.0,
        channel_loss_db=6.7,
        detector_efficiency=0.2,
        dark_rate_hz=10.0,
    )
    return ExperimentConfig(source=source, signal=signal, idler=idler)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Return a list of human-readable violations; empty list means valid.

    Violations are data, not exceptions, so callers can report all of them
    at once (require_valid joins them into one error).
    """
    bad = [
        f"{section}.{name} must be a finite real number, got {value!r}"
        for section in ("source", "signal", "idler")
        for name, value in vars(getattr(cfg, section)).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if bad:  # no range below holds or fails meaningfully for a NaN or an infinity
        return bad
    src = cfg.source
    if src.pair_coeff <= 0:
        bad.append(f"source.pair_coeff must be > 0, got {src.pair_coeff}")
    if src.noise_coeff < 0:
        bad.append(f"source.noise_coeff must be >= 0, got {src.noise_coeff}")
    if src.bandwidth_ghz <= 0:
        bad.append(f"source.bandwidth_ghz must be > 0, got {src.bandwidth_ghz}")
    if src.pulse_width_ns <= 0:
        bad.append(f"source.pulse_width_ns must be > 0, got {src.pulse_width_ns}")
    if src.rep_rate_ghz <= 0:
        bad.append(f"source.rep_rate_ghz must be > 0, got {src.rep_rate_ghz}")
    if src.peak_power_w < 0:
        bad.append(f"source.peak_power_w must be >= 0, got {src.peak_power_w}")
    else:
        from .analytic import PairStatistics  # analytic imports this module

        if not math.isfinite(PairStatistics.from_power(src.peak_power_w, src).mu_total):
            bad.append(
                f"source.peak_power_w must keep the channel mean finite, got {src.peak_power_w}"
            )

    for name, ch in (("signal", cfg.signal), ("idler", cfg.idler)):
        if ch.out_coupling_db < 0:
            bad.append(f"{name}.out_coupling_db must be >= 0, got {ch.out_coupling_db}")
        if ch.channel_loss_db < 0:
            bad.append(f"{name}.channel_loss_db must be >= 0, got {ch.channel_loss_db}")
        if not 0.0 <= ch.detector_efficiency <= 1.0:
            bad.append(
                f"{name}.detector_efficiency must be in [0, 1], got {ch.detector_efficiency}"
            )
        if ch.dark_rate_hz < 0:
            bad.append(f"{name}.dark_rate_hz must be >= 0, got {ch.dark_rate_hz}")
        elif src.rep_rate_ghz > 0 and ch.dark_rate_hz >= src.rep_rate_ghz * 1e9:
            limit = "source.rep_rate_ghz * 1e9 (one dark per slot)"
            bad.append(f"{name}.dark_rate_hz must be < {limit}, got {ch.dark_rate_hz}")
        if ch.interferometer_loss_db < 0:
            bad.append(
                f"{name}.interferometer_loss_db must be >= 0, got {ch.interferometer_loss_db}"
            )

    # Counts fit numpy's int64, in which the sampler holds run slots; a larger
    # one can also leave the float range of the closed forms.
    if not 2 <= cfg.coherence_slots < 2**63:
        bad.append(f"coherence_slots must be in [2, 2**63), got {cfg.coherence_slots}")
    if not 1 <= cfg.num_pulses < 2**63:
        bad.append(f"num_pulses must be in [1, 2**63), got {cfg.num_pulses}")
    # A seed is one uint32 word of the stream key; a larger one collides.
    if not 0 <= cfg.seed < 2**32:
        bad.append(f"seed must be in [0, 2**32), got {cfg.seed}")
    return bad


def require_valid(cfg: ExperimentConfig) -> None:
    """Raise one ValueError listing every violation of validate_config."""
    bad = validate_config(cfg)
    if bad:
        raise ValueError("invalid config: " + "; ".join(bad))


# ----------------------------------------------------------------------
# JSON-facing dict conversion
# ----------------------------------------------------------------------

def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict form of the config; keys mirror the dataclass fields."""
    return asdict(cfg)


_EXPECTED = {float: "a finite real number", int: "an integer", bool: "true or false"}


def _checked(value, kind: type, where: str):
    """The value if JSON gave it the field's declared type, else a ValueError.

    Reals come back as float, so a config's JSON form (and its hash) does
    not depend on whether the file spelled a number 0 or 0.0.
    """
    if kind is bool:
        ok = isinstance(value, bool)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    else:
        try:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            ok = False
    if not ok:
        raise ValueError(f"{where} must be {_EXPECTED[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _build(cls: type, raw, where: str):
    """One config level from its JSON object, every declared field required."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where or 'config'} must be a JSON object, got {type(raw).__name__}")
    declared = {field.name: field.type for field in fields(cls)}
    unknown = set(raw) - set(declared)
    if unknown:
        raise ValueError(f"unknown keys in {where or 'config'}: {sorted(unknown)}")
    values = {}
    for name, kind in declared.items():
        path = f"{where}.{name}" if where else name
        if name not in raw:
            raise ValueError(f"{path} is missing")
        if is_dataclass(kind):
            values[name] = _build(kind, raw[name], path)
        else:
            values[name] = _checked(raw[name], kind, path)
    return cls(**values)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object.

    Every field at every level must be present, of its declared type (a
    bool is not a number; counts and the seed are integers) and finite, and
    unknown keys are rejected. Each failure is a ValueError that names the
    field, e.g. "source.pair_coeff is missing": silent typos in config
    files have burned enough runs already.
    """
    return _build(ExperimentConfig, data, "")
