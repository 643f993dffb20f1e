"""Monte Carlo experiment engine for the packet detector.

A Scenario bundles everything one detection-probability curve needs:
the waveform recipe, a channel profile, an optional CFO range, the
detector settings, and the trial budget.  run_point scores one SNR
point (signal trials plus a separate noise-only false-alarm count, next
to the chi-squared theory P_D from detector) and run_curve sweeps the
scenario's SNR grid into one record, the curve's CSV next to a text
copy of the scenario, rewritten after each finished point so an
interrupted sweep resumes where it stopped.

A signal trial reads only the windows within p + L of the packet
start, and _scores alone defines them, for calibrated and tracked
trials alike; a trial is a hit when any of them crosses the threshold.
A calibrated trial pushes just the input span those windows depend on
(channelizer.input_span), with the bytes a full push gives them; a
tracked trial pushes its whole stream.  Noise-only streams score every
window.

Reproducibility contract: every random draw in a trial comes from a
seed sequence keyed on (root_seed, SNR point key, stream tag, trial
index).  The key depends only on scenario content, never on execution
order or worker count, so a curve's CSV bytes are identical whether it
runs serially, in a process pool, or resumed across interruptions.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import math
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from . import waveform
from .channel import (
    ChannelRealization,
    DelaySpreadProfile,
    apply_cfo,
    apply_channel,
    assemble_stream,
    effective_taps,
    generate_multipath,
    noise_psd_from_eta,
)
from .channelizer import CascadeDetector, ChannelizerConfig, input_span, tracked_first_anchor
from .detector import (
    DetectionConfig,
    cfo_grid,
    eta_for_pd,
    ideal_band_split,
    noncentrality_at_eta,
    theory_pd,
    threshold,
)
from .numerics import ComplexSignal
from .waveform import (
    SpreadingCode,
    WaveformConfig,
    WaveformSpec,
    composite_pulse,
    design_prototype_filter,
    generate_preamble,
)

__all__ = [
    "Scenario",
    "CurvePoint",
    "wilson_interval",
    "run_point",
    "run_curve",
    "measure_false_alarm",
    "curve_csv_path",
    "scenario_to_text",
    "scenario_from_text",
    "load_scenario",
    "preset",
    "preset_names",
]

_Z95 = 1.959963984540054

# stream tags for the per-trial seed key
_TAG_SIGNAL = 1
_TAG_NOISE = 2


@dataclass(frozen=True)
class Scenario:
    """One experiment: a waveform in a channel, swept over SNR.

    The impairments are the paper's: an optional multipath profile,
    white noise at the swept SNR and an optional carrier offset.
    The receiver is detector.radios = M cascades over M contiguous
    sub-bands of the stream, whose statistics are summed; M = 1 is the
    single-radio receiver, one cascade over the full band.
    cfo_range_hz > 0 turns on a uniform carrier offset in
    [-range, +range] per signal trial and a search over detector.cfo_grid,
    whose size is the candidate count j of the threshold and the theory
    curve.  known_noise pins each trial's whitener to the true noise
    level (the calibrated detector the theory curves describe); with it
    off the receiver estimates band powers from its own trailing window.
    Packets start on the symbol lattice: the scored window grid
    advances one symbol per window with detector.p delay branches each.
    """

    name: str
    waveform: WaveformSpec
    channel_profile: DelaySpreadProfile | None
    snr_sweep_db: tuple[float, ...]
    detector: DetectionConfig
    trials_per_point: int
    root_seed: int
    cfo_range_hz: float = 0.0
    known_noise: bool = True
    noise_windows: int = 4096

    def __post_init__(self):
        object.__setattr__(
            self, "snr_sweep_db", tuple(float(v) for v in self.snr_sweep_db)
        )
        if not self.name or any(c in self.name for c in "/\\ \t\n"):
            raise ValueError("name must be a nonempty token usable in file names")
        if not self.snr_sweep_db or not all(map(math.isfinite, self.snr_sweep_db)):
            raise ValueError("snr_sweep_db must be nonempty and finite")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.noise_windows < 1:
            raise ValueError("noise_windows must be >= 1")
        if self.waveform.num_subbands % self.detector.radios != 0:
            raise ValueError("radio count must divide the subband count")
        # past half the sample rate an offset derotates like its alias
        r = self.cfo_range_hz
        if not (r == 0.0 or 0.0 < r < self.waveform.sample_rate_hz / 2):
            raise ValueError("cfo_range_hz must be >= 0, finite and below half the sample rate")


@dataclass(frozen=True)
class CurvePoint:
    """One SNR point of a detection curve, empirical next to theory."""

    eta_db: float
    p_d_empirical: float
    p_d_theory: float
    p_fa_empirical: float
    trials: int
    wilson_low: float
    wilson_high: float

    def __post_init__(self):
        for label in ("p_d_empirical", "p_d_theory", "p_fa_empirical"):
            v = getattr(self, label)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} must be a probability, got {v}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.wilson_low <= self.p_d_empirical <= self.wilson_high:
            raise ValueError("confidence interval must contain the estimate")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    z = _Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    spread = phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)
    half = z * math.sqrt(spread) / denom
    # exactly 0 and 1 at the extremes, which rounding can leave just inside
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


# ---------------------------------------------------------------------------
# per-process build cache


@dataclass(frozen=True)
class _Bundle:
    """Everything a trial reuses; built once per scenario per process."""

    wf: WaveformConfig
    cfg: ChannelizerConfig  # radio 0's, the full-band cascade at one radio
    pulse: ComplexSignal
    tx: ComplexSignal
    rho: ComplexSignal
    # the unit channel's calibration taps, those of every noise trial and
    # of every signal trial without a channel profile
    unit_theta: np.ndarray = field(repr=False)
    radio_cfgs: tuple[ChannelizerConfig, ...]
    thr: float
    lead_symbols_lo: int
    trail_samples: int
    grid_hz: np.ndarray = field(repr=False)


_BUNDLES: dict[Scenario, _Bundle] = {}


def _bundle(scenario: Scenario) -> _Bundle:
    cached = _BUNDLES.get(scenario)
    if cached is not None:
        return cached
    wf = scenario.waveform.build()
    det = scenario.detector
    radio_wfs = [wf]
    if det.radios > 1:
        # radio m sees the K-band waveform of bands [mK, (m+1)K) after an
        # ideal band split; its quadrature stagger restarts at its first
        # band, which drops a constant phase per radio, and the detector
        # statistics are magnitude based, so that phase never matters
        k = wf.num_subbands // det.radios
        proto = design_prototype_filter(k, wf.prototype.span_symbols, wf.prototype.rolloff)
        radio_wfs = [
            dataclasses.replace(wf, num_subbands=k, prototype=proto, code=SpreadingCode(signs))
            for signs in wf.code.signs.reshape(det.radios, k)
        ]
    radio_cfgs = tuple(ChannelizerConfig(w, det.taps_per_radio) for w in radio_wfs)
    # the radio configs share their sizes, so radio 0's warm-up is every radio's
    warmup = tracked_first_anchor(radio_cfgs[0]) * det.radios
    l = wf.num_subbands
    grid_hz = cfo_grid(scenario.cfo_range_hz, scenario.waveform.preamble_duration_s)
    # lead is drawn past the tracked warm-up even in calibrated runs so
    # matched-seed comparisons of the two whitening modes stay aligned
    lead_lo = warmup // l + 2
    trail = 2 * wf.prototype.span_symbols * l + 2 * l
    # called through its module, so a wrapper put there sees the call
    pulse = waveform.synthesize_pulse(wf)
    rho = composite_pulse(wf)
    built = _Bundle(
        wf=wf,
        cfg=radio_cfgs[0],
        pulse=pulse,
        tx=generate_preamble(wf, pulse),
        rho=rho,
        unit_theta=effective_taps(_UNIT_CHANNEL, rho, det.p, 1.0 / wf.sample_rate_hz),
        radio_cfgs=radio_cfgs,
        thr=threshold(det.p_fa, det.p, grid_hz.size),
        lead_symbols_lo=lead_lo,
        trail_samples=trail,
        grid_hz=grid_hz,
    )
    if len(_BUNDLES) >= 8:
        _BUNDLES.clear()
    _BUNDLES[scenario] = built
    return built


# ---------------------------------------------------------------------------
# seeding


def _eta_key(eta_db: float) -> int:
    # micro-dB resolution, folded to an unsigned 64-bit word
    return int(round(eta_db * 1e6)) & 0xFFFFFFFFFFFFFFFF


def _trial_rng(scenario: Scenario, eta_db: float, tag: int, index: int):
    seq = np.random.SeedSequence(
        entropy=[
            scenario.root_seed & 0xFFFFFFFFFFFFFFFF,
            _eta_key(eta_db),
            tag,
            index,
        ]
    )
    return np.random.default_rng(seq)


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2**63 - 1))


# ---------------------------------------------------------------------------
# scoring


def _scores(
    stream: ComplexSignal,
    bundle: _Bundle,
    scenario: Scenario,
    noise_psd: float,
    k0: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(full-rate anchors, statistics), maxed over the CFO candidate grid.

    Each candidate derotates the stream and runs one cascade per radio
    over its L/M bands, statistics summed in radio order; known noise
    pins each whitener to N0/M.  M = 1 is the SRB case.  Given the
    packet start k0 of a signal trial, only the windows within p + L of
    k0 are returned: this is the one definition of the windows a trial
    reads, in both whitening modes.  With known noise each radio pushes
    just the input_span of its sub-stream, cut after the band split; a
    tracked window reads the hops before it, so a tracked stream is
    pushed whole: ceil(n/L) * L/M samples a radio for n stream samples.
    The split is one FFT of the stream zero-padded to a multiple of 64
    symbols, whose length then has no large prime factor: a stream's
    own symbol count is often prime, and its FFT many times slower.
    """
    radios = scenario.detector.radios
    l = bundle.wf.num_subbands
    override = np.full(l // radios, noise_psd / radios) if scenario.known_noise else None
    start, stop = 0, -(-stream.samples.size // l) * (l // radios)
    if k0 is not None:
        reach = scenario.detector.p + l
        first = -(-(k0 - reach) // l) * l
        last = (k0 + reach) // l * l
        if scenario.known_noise:
            # every radio config has the same sizes and every sub-stream
            # the same length, so one span serves all radios
            start, stop = input_span(bundle.radio_cfgs[0], first // radios, last // radios)
    best = None
    for df in bundle.grid_hz:
        x = apply_cfo(stream, -df).samples
        subs = [x]
        if radios > 1:
            padded = np.concatenate([x, np.zeros((-x.size) % (64 * l), dtype=np.complex128)])
            subs = ideal_band_split(padded, l, radios)
        pushed = [
            CascadeDetector(cfg_m, power_override=override).push(sub[start:stop])
            for cfg_m, sub in zip(bundle.radio_cfgs, subs)
        ]
        stats = sum((s for _, s in pushed[1:]), pushed[0][1])
        # statistics are 2*energy/beta, never NaN or -0.0, so a running
        # maximum has the bits of the maximum over the stack
        best = stats if best is None else np.maximum(best, stats)
    anchors = (pushed[0][0] + start) * radios
    if k0 is None:
        return anchors, best
    # the read windows; a sliced stream's earlier ones had silence for history
    keep = (anchors >= first) & (anchors <= last)
    return anchors[keep], best[keep]


# ---------------------------------------------------------------------------
# trials


_UNIT_CHANNEL = ChannelRealization(delays_s=np.zeros(1), gains=np.ones(1))


def _calibration_taps(scenario: Scenario, channel: ChannelRealization, bundle: _Bundle):
    """Effective taps used to set the trial's noise level from eta.

    The tap window covers the channel's spread plus a margin, not just
    the detector's p hypotheses, so eta measures the energy the channel
    actually delivers.  A detector whose p undershoots the true spread
    then pays the lost energy as a visible curve shift instead of the
    calibration quietly renormalizing it away.  Without a channel
    profile the taps are the bundle's unit_theta.
    """
    wf = bundle.wf
    spread = math.ceil(
        scenario.channel_profile.target_95pct_duration_ns * 1e-9 * wf.sample_rate_hz
    )
    p_cal = min(wf.prototype.span_symbols * wf.num_subbands, scenario.detector.p + spread + 16)
    return effective_taps(channel, bundle.rho, p_cal, 1.0 / wf.sample_rate_hz)


def _signal_trial(scenario: Scenario, eta_db: float, trial: int) -> bool:
    bundle = _bundle(scenario)
    wf = bundle.wf
    rng = _trial_rng(scenario, eta_db, _TAG_SIGNAL, trial)

    if scenario.channel_profile is not None:
        channel = generate_multipath(scenario.channel_profile, seed=_draw_seed(rng))
        # the channel filters the short pulse; the train is then rebuilt
        rx = generate_preamble(wf, apply_channel(bundle.pulse, channel))
        theta = _calibration_taps(scenario, channel, bundle)
    else:
        rx = bundle.tx
        theta = bundle.unit_theta
    n0 = noise_psd_from_eta(eta_db, theta, wf.num_subbands)

    l = wf.num_subbands
    lead = l * int(rng.integers(bundle.lead_symbols_lo, bundle.lead_symbols_lo + 32))
    # assemble_stream takes the per-sample noise variance of the stream,
    # which is N0/L for a matched-filter-plane level N0
    stream = assemble_stream(
        rx, lead, bundle.trail_samples, noise_psd=n0 / l, seed=_draw_seed(rng)
    )
    # the stream holds the received preamble now; the push need not keep it too
    del rx
    if scenario.cfo_range_hz > 0.0:
        df = float(rng.uniform(-scenario.cfo_range_hz, scenario.cfo_range_hz))
        stream = apply_cfo(stream, df)

    _, stats = _scores(stream, bundle, scenario, n0, lead)
    return bool(np.any(stats > bundle.thr))


def _noise_trial(scenario: Scenario, eta_db: float, index: int) -> tuple[int, int]:
    """(threshold crossings, scored windows) over one noise-only stream."""
    bundle = _bundle(scenario)
    wf = bundle.wf
    l = wf.num_subbands
    rng = _trial_rng(scenario, eta_db, _TAG_NOISE, index)
    n0 = noise_psd_from_eta(eta_db, bundle.unit_theta, l)
    warmup = bundle.lead_symbols_lo * l
    windows_here = min(scenario.noise_windows, 512)
    length = warmup + windows_here * l + wf.preamble_length * l + bundle.trail_samples
    nothing = ComplexSignal(np.zeros(0, dtype=np.complex128), wf.sample_rate_hz)
    stream = assemble_stream(nothing, 0, length, noise_psd=n0 / l, seed=_draw_seed(rng))
    _, stats = _scores(stream, bundle, scenario, n0)
    return int(np.count_nonzero(stats > bundle.thr)), int(stats.size)


def _map_trials(fn, scenario: Scenario, eta_db: float, indices: range, workers: int):
    """[fn(scenario, eta_db, i) for i in indices], in a process pool if workers > 0."""
    if workers <= 0:
        return [fn(scenario, eta_db, i) for i in indices]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(indices) // (workers * 4))
        args = itertools.repeat(scenario), itertools.repeat(eta_db), indices
        return list(pool.map(fn, *args, chunksize=chunk))


# ---------------------------------------------------------------------------
# points and curves


def measure_false_alarm(
    scenario: Scenario, eta_db: float, workers: int = 0
) -> tuple[int, int]:
    """Count (crossings, windows) over noise-only streams.

    Streams are drawn and scored until at least the scenario's
    noise_windows windows have been seen.  The count is exact: each
    stream reports how many windows it actually scored.
    """
    eta = float(eta_db)
    # windows per stream is known only after scoring; probe one stream
    probe_cross, probe_windows = _noise_trial(scenario, eta, 0)
    if probe_windows == 0:
        raise RuntimeError("noise stream produced no scored windows")
    remaining = scenario.noise_windows - probe_windows
    extra = max(0, -(-remaining // probe_windows))
    results = _map_trials(_noise_trial, scenario, eta, range(1, 1 + extra), workers)
    crossings = probe_cross + sum(c for c, _ in results)
    windows = probe_windows + sum(w for _, w in results)
    return crossings, windows


def run_point(scenario: Scenario, eta_db: float, workers: int = 0) -> CurvePoint:
    """Score one SNR point: signal trials, noise-only windows, theory.

    A trial counts as a detection when some window statistic crosses
    the threshold among the windows it reads: those whose anchor lies
    within p + L samples of the true packet start, as _scores
    defines them in both whitening modes.  With known noise only those
    windows are scored.  False alarms are counted on separate noise-only
    streams at the same settings, every window of them.

    p_d_theory is the law of the one window aligned with the packet.
    The empirical count takes any window within +-(p + L) of the start,
    which is two or three windows, so at low eta, where each of them
    crosses at about the false-alarm rate, it can sit about 2*P_FA above
    theory.
    """
    det = scenario.detector
    wf = scenario.waveform
    trials = scenario.trials_per_point
    # built before any pool, so forked workers inherit it
    bundle = _bundle(scenario)
    detections = sum(_map_trials(_signal_trial, scenario, eta_db, range(trials), workers))
    crossings, windows = measure_false_alarm(scenario, eta_db, workers=workers)
    lam = noncentrality_at_eta(eta_db, wf.preamble_length, wf.num_subbands)
    low, high = wilson_interval(detections, trials)
    return CurvePoint(
        eta_db=float(eta_db),
        p_d_empirical=detections / trials,
        p_d_theory=theory_pd(det.p_fa, det.p, lam, bundle.grid_hz.size),
        p_fa_empirical=crossings / windows,
        trials=trials,
        wilson_low=low,
        wilson_high=high,
    )


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(text.encode())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _read_bytes(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc


def curve_csv_path(scenario: Scenario, out_dir: str) -> str:
    return os.path.join(out_dir, f"{scenario.name}.csv")


def _csv_text(points: list[CurvePoint]) -> str:
    header = ",".join(f.name for f in dataclasses.fields(CurvePoint))
    rows = (",".join(value for _, value in _field_items(pt)) for pt in points)
    return "".join(f"{line}\n" for line in (header, *rows))


def _finished_points(scenario: Scenario, csv_path: str, scenario_path: str) -> list[CurvePoint]:
    """The curve's rows so far, checked against the scenario; [] without a CSV."""
    if not os.path.exists(csv_path):
        return []
    if _read_bytes(scenario_path, "scenario file") != scenario_to_text(scenario).encode():
        raise ValueError(f"scenario file {scenario_path} holds another scenario than {csv_path}")
    try:
        text = _read_bytes(csv_path, "curve").decode()
        header, *rows = text.split("\n")
        # the header's cells are the keys; strict, as zip would drop an extra cell
        points = [
            _decode(CurvePoint, zip(header.split(","), row.split(","), strict=True))
            for row in rows[:-1]
        ]
        # the header, every cell and each line's newline as _csv_text writes them
        if _csv_text(points) != text:
            raise ValueError("it does not read back as written")
    except ValueError as exc:
        raise ValueError(f"corrupt curve {csv_path}: {exc}") from exc
    sweep = scenario.snr_sweep_db
    if [_eta_key(pt.eta_db) for pt in points] != [_eta_key(e) for e in sweep[: len(points)]]:
        raise ValueError(f"curve {csv_path} is not a prefix of the sweep {sweep}")
    return points


def run_curve(scenario: Scenario, out_dir: str, workers: int = 0) -> list[CurvePoint]:
    """Sweep the scenario's SNR grid into <name>.csv, the curve's one record.

    The CSV sits next to <name>.scenario.txt and is rewritten atomically
    after each finished point, so an interrupted run leaves a CSV of its
    finished points, which can be read mid-run.  A rerun reads the rows
    back and runs the rest: resume starts from the finished prefix of
    the sweep, which is what an interruption leaves.  A complete CSV
    resumes as complete; per-point state files that older runs left
    beside it are ignored.  Before writing anything the bundle is built
    and the CSV refused, naming the file, if its scenario file is
    missing or not byte-equal to scenario_to_text(scenario), its rows
    are not a prefix of the sweep, or a row is corrupt.
    """
    scenario_path = os.path.join(out_dir, f"{scenario.name}.scenario.txt")
    csv_path = curve_csv_path(scenario, out_dir)
    points = _finished_points(scenario, csv_path, scenario_path)
    _bundle(scenario)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    _write_text(scenario_path, scenario_to_text(scenario))
    for eta_db in scenario.snr_sweep_db[len(points):]:
        points.append(run_point(scenario, eta_db, workers=workers))
        _write_text(csv_path, _csv_text(points))
    return points


# ---------------------------------------------------------------------------
# scenario files and curve rows
#
# A scenario file holds one "key = value" line per dataclass field, in
# field order; a curve CSV row holds a CurvePoint's field values under a
# header of the same keys.  _field_items writes both and _decode reads
# both, from (key, value) pairs.  A key is the field's path (name,
# waveform.rolloff, channel_profile.los) and a section that is None
# writes no lines.  The reader takes keys, defaults, required fields and
# value types from the same dataclass fields, so the format has no other
# definition.  _parse_pairs skips blank lines and lines that start with
# "#", so a scenario file may carry comments.


def _field_types(cls) -> list[tuple[dataclasses.Field, type, bool]]:
    """(field, value type, may be None) for each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:
            (hint,) = [a for a in args if a is not type(None)]
        out.append((f, hint, optional))
    return out


def _format_value(value, hint) -> str:
    if hint is bool:
        return "true" if value else "false"
    if hint is float:
        return repr(float(value))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return ", ".join(_format_value(v, item) for v in value)
    return str(value)


def _parse_value(raw: str, hint, key: str):
    if hint is bool:
        if raw not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {raw!r}")
        return raw == "true"
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_parse_value(v.strip(), item, key) for v in raw.split(","))
    try:
        return hint(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {hint.__name__}, got {raw!r}") from None


def _field_items(obj, prefix: str = ""):
    """(key, value text) for every field of a dataclass, in field order."""
    for f, hint, _ in _field_types(type(obj)):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(hint):
            if value is not None:
                yield from _field_items(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", _format_value(value, hint)


def _read_fields(cls, pairs: dict[str, str], prefix: str = "") -> dict:
    """Constructor arguments of cls from pairs; pops every key it uses."""
    kwargs = {}
    for f, hint, optional in _field_types(cls):
        key = prefix + f.name
        if dataclasses.is_dataclass(hint):
            # present only through its own keys; strays stay in pairs as unknown keys
            if optional and not any(f"{key}.{g.name}" in pairs for g in dataclasses.fields(hint)):
                kwargs[f.name] = None
            else:
                kwargs[f.name] = hint(**_read_fields(hint, pairs, key + "."))
        elif key in pairs:
            kwargs[f.name] = _parse_value(pairs.pop(key), hint, key)
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"missing key {key!r}")
    return kwargs


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = raw.strip()
    return pairs


def _decode(cls, pairs) -> typing.Any:
    """A cls instance from (key, value text) pairs; any fault raises ValueError."""
    pairs = dict(pairs)
    kwargs = _read_fields(cls, pairs)
    if pairs:
        raise ValueError(f"unknown keys: {', '.join(sorted(pairs))}")
    return cls(**kwargs)


def scenario_to_text(scenario: Scenario) -> str:
    """Serialize to the key = value scenario file format."""
    return "".join(f"{key} = {value}\n" for key, value in _field_items(scenario))


def scenario_from_text(text: str) -> Scenario:
    """Parse the key = value scenario format; unknown keys are errors."""
    return _decode(Scenario, _parse_pairs(text))


def load_scenario(path: str) -> Scenario:
    """Read a scenario file; every error, reading or decoding, names the file."""
    try:
        return scenario_from_text(_read_bytes(path, "scenario file").decode())
    except ValueError as exc:
        raise ValueError(f"corrupt scenario file in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# presets


def _placed_sweep(
    p_fa: float, p: int, n: int, l: int, targets: tuple[float, ...]
) -> tuple[float, ...]:
    return tuple(round(eta_for_pd(p_fa, p, t, n, l), 3) for t in targets)


def _desk() -> Scenario:
    fs = 500e6
    spec = WaveformSpec(
        num_subbands=64,
        preamble_length=32,
        symbol_duration_s=64 / fs,
        sign_seed=2,
        symbol_seed=7,
    )
    det = DetectionConfig(p=4, p_fa=1e-2)
    sweep = _placed_sweep(
        det.p_fa, det.p, spec.preamble_length, spec.num_subbands,
        (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
    )
    return Scenario(
        name="desk",
        waveform=spec,
        channel_profile=None,
        snr_sweep_db=sweep,
        detector=det,
        trials_per_point=600,
        root_seed=20260814,
        noise_windows=8192,
    )


def _paper(
    name: str, fs: float, l: int, duration: float, p: int, radios: int,
    seeds: tuple[int, int],
) -> Scenario:
    """A paper-scale preset: 80 ns NLOS spread, P_FA = 1e-8, N from the duration."""
    t_b = l / fs
    n = round(duration / t_b)
    spec = WaveformSpec(
        num_subbands=l,
        preamble_length=n,
        symbol_duration_s=t_b,
        sign_seed=seeds[0],
        symbol_seed=seeds[1],
    )
    det = DetectionConfig(p=p, p_fa=1e-8, radios=radios)
    sweep = _placed_sweep(det.p_fa, det.p, n, l, (0.1, 0.3, 0.5, 0.7, 0.9, 0.99))
    return Scenario(
        name=name,
        waveform=spec,
        channel_profile=DelaySpreadProfile(
            los=False,
            target_95pct_duration_ns=80.0,
            decay_constant_ns=27.0,
        ),
        snr_sweep_db=sweep,
        detector=det,
        trials_per_point=1000,
        root_seed=20260814,
    )


_PRESETS = {
    "desk": _desk,
    # 80 ns delay spread at 2 ns chips
    "narrowband": lambda: _paper("narrowband", 500e6, 1024, 2e-3, 40, 1, (11, 12)),
    # the same at 0.78 ns chips, rounded up to a multiple of 8 radios
    "wideband": lambda: _paper("wideband", 1280e6, 4096, 2e-3, 104, 8, (21, 22)),
    "wideband_short": lambda: _paper(
        "wideband_short", 1280e6, 4096, 0.2e-3, 104, 8, (21, 22)
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> Scenario:
    """Named scenario: desk, narrowband, wideband, or wideband_short.

    desk is sized to run a full curve on one core in minutes.  The
    narrowband and wideband presets describe the paper-scale systems;
    building one only computes its configuration (the preamble length
    is the requested duration in whole symbols, and the sweep is
    placed from theory), it does not start any trials.
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return factory()
