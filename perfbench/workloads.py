"""The benchmark's workloads, each driving fbmcss through its public API.

A workload makes its scenario (set-up), writes any input files, runs
one timed repetition (`rep`) and compares a fixed-seed run against the
reference outputs under refs/.  Every random input comes from the seed
the benchmark is given; the package only sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
import time
import traceback

import numpy as np

from fbmcss import channel, harness, iqio
from fbmcss.channelizer import CascadeDetector

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
REF_SEED = 20260814  # the presets' own root seed


class Checks:
    """Counts attempted and failed checks and operations, never aborts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")

    def op(self, fn, what: str):
        """Run one operation; a raised error counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the benchmark must still report its numbers
            self.failed += 1
            self.notes.append(f"{what} raised:\n{traceback.format_exc()}")
            return None


@dataclasses.dataclass
class RepFigures:
    """What one timed repetition did.

    `steps` splits the repetition's wall time into labelled pieces, in
    the order they ran: the self time of each traced call, then the
    untraced rest.  Every repetition of a workload makes the same steps.
    """

    wall_s: float
    steps: list[tuple[str, float]]
    signal_trials: int
    noise_windows: int
    samples: int


def _steps(spans, wall: float, label) -> list[tuple[str, float]]:
    """Each span's self time under label(index), then the untraced rest."""
    steps = [(label(i), s.end - s.start - s.child_s) for i, s in enumerate(spans)]
    traced = sum(s.end - s.start for s in spans if s.parent < 0)
    steps.append(("rest", wall - traced))
    return steps


_POINT_FIELDS = [f.name for f in dataclasses.fields(harness.CurvePoint)]


def _read_ref(name: str) -> bytes:
    try:
        with open(os.path.join(REF_DIR, name), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _curve_figures(tracer, wall: float, signal_trials: int, checks: Checks) -> RepFigures:
    """Label a harness repetition's steps as signal or noise time."""
    spans = tracer.spans
    noise = []
    for s in spans:
        noise.append(s.name == "harness.false_alarm" or (s.parent >= 0 and noise[s.parent]))
    pushes = [s for s in spans if s.name == "channelizer.push"]
    checks.check(sum(s.counts["nan"] for s in pushes) == 0, "a statistic is NaN")

    def label(i: int) -> str:
        kind = "push" if spans[i].name == "channelizer.push" else "harness"
        return ("noise_" if noise[i] else "signal_") + kind

    return RepFigures(
        wall_s=wall,
        steps=_steps(spans, wall, label),
        signal_trials=signal_trials,
        noise_windows=sum(s.counts["windows"] for s in spans if s.name == "harness.false_alarm"),
        samples=sum(s.counts["samples"] for s in pushes),
    )


class Workload:
    """Hooks a workload may leave out, and how its steps map to metrics.

    The label sets name the steps (see RepFigures) whose time each rate
    divides by; `latency_labels` names the pushes whose latency is reported.
    """

    signal_labels = frozenset({"signal_harness", "signal_push", "rest"})
    noise_labels = frozenset({"noise_harness", "noise_push"})
    stream_labels = frozenset({"signal_push", "noise_push"})
    latency_labels = stream_labels

    def write_inputs(self, bundle) -> None:
        """Write the input files a repetition reads; part of set-up."""

    def reference(self, checks: Checks) -> None:
        """Compare a fixed-seed run with refs/, after the timed phase."""

    def cleanup(self) -> None:
        """Remove what the workload wrote."""


class DeskCurve(Workload):
    """run_curve on the desk preset with a reduced trial budget."""

    name = "desk_curve"
    ref_name = "desk_curve.csv"
    preset = "desk"
    setup_reps = 9

    def __init__(self, seed: int, toy: bool, work_dir: str):
        self.seed = seed
        self.trials = 1 if toy else 8
        self.work_dir = work_dir
        self.toy = toy
        self.first_csv: bytes | None = None

    def scale(self, sc: harness.Scenario, seed: int) -> harness.Scenario:
        # one noise stream per point: a desk noise stream scores 558 windows
        return dataclasses.replace(
            sc, trials_per_point=self.trials, noise_windows=512, root_seed=seed
        )

    def make_scenario(self) -> harness.Scenario:
        self.scenario = self.scale(harness.preset(self.preset), self.seed)
        return self.scenario

    def _curve(self, sc: harness.Scenario) -> bytes:
        out_dir = tempfile.mkdtemp(prefix="curve-", dir=self.work_dir)
        try:
            harness.run_curve(sc, out_dir, workers=0)
            with open(harness.curve_csv_path(sc, out_dir), "rb") as fh:
                return fh.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def rep(self, tracer, checks: Checks) -> RepFigures | None:
        sc = self.scenario
        t0 = time.perf_counter()
        csv = checks.op(lambda: self._curve(sc), "run_curve")
        wall = time.perf_counter() - t0
        if csv is None:
            return None
        if self.first_csv is None:
            self.first_csv = csv
        checks.check(csv == self.first_csv, "curve CSV bytes differ between repetitions")
        trials = sc.trials_per_point * len(sc.snr_sweep_db)
        return _curve_figures(tracer, wall, trials, checks)

    def reference_output(self) -> bytes:
        """What refs/<ref_name> holds: the curve at the preset's root seed."""
        return self._curve(dataclasses.replace(self.scenario, root_seed=REF_SEED))

    def reference(self, checks: Checks) -> None:
        csv = checks.op(self.reference_output, "reference run_curve")
        if csv is not None:
            checks.check(csv == _read_ref(self.ref_name), f"output differs from refs/{self.ref_name}")


class NarrowbandPoint(Workload):
    """run_point at one SNR on the paper-scale narrowband preset.

    A point costs seconds, so the seed picks which of the preset's sweep
    points is run, all at the preset's own root seed; refs/ holds every
    one of them and each repetition is compared against its own line.
    """

    name = "narrowband_point"
    ref_name = "narrowband_point.csv"
    preset = "narrowband"
    setup_reps = 3

    def __init__(self, seed: int, toy: bool, work_dir: str):
        self.seed = seed
        self.toy = toy

    def make_scenario(self) -> harness.Scenario:
        sc = harness.preset(self.preset)
        if self.toy:
            sc = dataclasses.replace(
                sc, waveform=dataclasses.replace(sc.waveform, preamble_length=16)
            )
        # a narrowband noise stream scores 1503 windows, so one stream
        self.scenario = dataclasses.replace(
            sc, trials_per_point=1, noise_windows=1024, root_seed=REF_SEED
        )
        self.index = self.seed % len(sc.snr_sweep_db)
        return self.scenario

    def _point_line(self, index: int) -> bytes:
        """One CurvePoint as a CSV line, every field as its repr."""
        sc = self.scenario
        point = harness.run_point(sc, sc.snr_sweep_db[index], workers=0)
        return (",".join(repr(getattr(point, n)) for n in _POINT_FIELDS) + "\n").encode()

    def rep(self, tracer, checks: Checks) -> RepFigures | None:
        t0 = time.perf_counter()
        line = checks.op(lambda: self._point_line(self.index), "run_point")
        wall = time.perf_counter() - t0
        if line is None:
            return None
        if not self.toy:
            ref = _read_ref(self.ref_name).splitlines(keepends=True)
            checks.check(
                ref[1 + self.index : 2 + self.index] == [line],
                f"CurvePoint differs from refs/{self.ref_name}",
            )
        return _curve_figures(tracer, wall, self.scenario.trials_per_point, checks)

    def reference_output(self) -> bytes:
        """What refs/<ref_name> holds: every sweep point, header first."""
        lines = [self._point_line(i) for i in range(len(self.scenario.snr_sweep_db))]
        return (",".join(_POINT_FIELDS) + "\n").encode() + b"".join(lines)


class StreamTracked(Workload):
    """A desk-config IQ file streamed through one tracked CascadeDetector.

    The file holds noise with preambles embedded on the symbol lattice.
    Each repetition reads it back, pushes it in large chunks (closed
    loop), then replays a prefix in 37-sample chunks on a new detector,
    whose statistics must equal the large-chunk ones bit for bit.
    """

    name = "stream_tracked"
    preset = "desk"
    # the file's samples over the read and the large-chunk pushes
    signal_labels = noise_labels = stream_labels = frozenset({"read", "push"})
    latency_labels = frozenset({"replay"})
    setup_reps = 9
    eta_db = -12.0  # far above the desk curve's P_D = 0.99 point
    chunk = 1 << 17
    small_chunk = 37
    spacing = 16384

    def __init__(self, seed: int, toy: bool, work_dir: str):
        self.seed = seed
        self.length = 1 << (16 if toy else 18)
        self.small_pushes = 200 if toy else 256
        self.path = os.path.join(work_dir, f"stream-{os.getpid()}.iq")
        self.samples: np.ndarray | None = None
        self.first_digest: str | None = None

    def make_scenario(self) -> harness.Scenario:
        self.scenario = harness.preset(self.preset)
        return self.scenario

    def _generate(self, bundle) -> None:
        sc = self.scenario
        wf = bundle.wf
        l = wf.num_subbands
        p = sc.detector.p
        rng = np.random.default_rng(self.seed)
        unit = channel.ChannelRealization(delays_s=np.zeros(1), gains=np.ones(1))
        theta = channel.effective_taps(unit, bundle.rho, p, 1.0 / wf.sample_rate_hz)
        n0 = channel.noise_psd_from_eta(self.eta_db, theta, l)
        n = self.length
        x = np.sqrt(n0 / l / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        tx = bundle.tx.samples
        starts = []
        for k in range(n // self.spacing - 1):
            # on the symbol lattice, delayed by less than p: the timing
            # uncertainty the scored window grid absorbs
            a = self.spacing // 2 + k * self.spacing
            a += l * int(rng.integers(0, 8)) + int(rng.integers(0, p))
            x[a : a + tx.size] += tx
            starts.append(a)
        self.samples = x
        self.starts = np.array(starts)
        self.preamble_samples = tx.size
        self.threshold = bundle.thr
        self.cfg = bundle.cfg
        self.tolerance = p + l
        self.reach = (wf.preamble_length - 1) * l + p

    def write_inputs(self, bundle) -> None:
        if self.samples is None:
            self._generate(bundle)
        iqio.iq_write(self.samples, self.path, sample_rate_hz=bundle.wf.sample_rate_hz)

    def cleanup(self) -> None:
        for path in (self.path, iqio.sidecar_path(self.path)):
            if os.path.exists(path):
                os.remove(path)

    def _stream(self, x: np.ndarray):
        det = CascadeDetector(self.cfg)
        anchors, stats = [], []
        for lo in range(0, x.size, self.chunk):
            a, s = det.push(x[lo : lo + self.chunk])
            anchors.append(a)
            stats.append(s)
        return np.concatenate(anchors), np.concatenate(stats)

    def _replay(self, x: np.ndarray):
        det = CascadeDetector(self.cfg)
        anchors, stats = [], []
        step = self.small_chunk
        for lo in range(0, step * self.small_pushes, step):
            a, s = det.push(x[lo : lo + step])
            anchors.append(a)
            stats.append(s)
        return np.concatenate(anchors), np.concatenate(stats)

    def _read_and_stream(self):
        x = iqio.iq_read(self.path).samples
        return (x, *self._stream(x))

    def rep(self, tracer, checks: Checks) -> RepFigures | None:
        t0 = time.perf_counter()
        streamed = checks.op(self._read_and_stream, "read and stream")
        t1 = time.perf_counter()
        if streamed is None:
            return None
        # the replay consumes the file's float32-quantized samples too
        x, anchors, stats = streamed
        replayed = checks.op(lambda: self._replay(x), "small-chunk replay")
        t2 = time.perf_counter()
        if replayed is None:
            return None
        self._check(checks, anchors, stats, replayed)
        spans = tracer.spans

        def label(i: int) -> str:
            if spans[i].name == "iqio.read":
                return "read"
            return "push" if spans[i].start < t1 else "replay"

        return RepFigures(
            wall_s=t2 - t0,
            steps=_steps(spans, t2 - t0, label),
            signal_trials=self.starts.size,
            noise_windows=int(np.count_nonzero(self._noise_only(anchors))),
            samples=x.size,
        )

    def _noise_only(self, anchors: np.ndarray) -> np.ndarray:
        """Windows [m, m + reach) that overlap no embedded preamble."""
        ends = self.starts + self.preamble_samples
        # the last preamble starting before each window ends
        idx = np.searchsorted(self.starts, anchors + self.reach)
        hit = np.zeros(anchors.size, dtype=bool)
        has_prev = idx > 0
        hit[has_prev] = ends[idx[has_prev] - 1] > anchors[has_prev]
        return ~hit

    def _check(self, checks, anchors, stats, replayed) -> None:
        checks.check(not np.any(np.isnan(stats)), "a large-chunk statistic is NaN")
        over = stats > self.threshold
        for a in self.starts:
            found = np.any(over & (np.abs(anchors - a) <= self.tolerance))
            checks.check(bool(found), f"preamble at sample {a} not detected")
        small_anchors, small_stats = replayed
        n = small_anchors.size
        checks.check(n > 0, "the small-chunk replay scored no window")
        checks.check(
            np.array_equal(small_anchors, anchors[:n])
            and np.array_equal(small_stats, stats[:n]),
            "small-chunk statistics differ from large-chunk ones",
        )
        digest = hashlib.sha256(anchors.tobytes() + stats.tobytes()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        checks.check(digest == self.first_digest, "statistics differ between repetitions")


WORKLOADS = {w.name: w for w in (DeskCurve, StreamTracked, NarrowbandPoint)}
