#!/usr/bin/env python3
"""Closed-loop benchmark of gesturec through the public functions of its modules.

    python3 perfbench/run.py --workload build-both --seed 1 --seconds 30 --trace 0

One client in one process and one thread runs ops back to back: each op
starts when the previous one and its output checks have ended.  Checks run
outside the timed interval; an op that raises or fails a check counts as
failed.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced ops alternate
and the JSON carries the per-module metrics.  Workloads and metrics are
described in ``perfbench/README.md``.

The program is imported from ``src/`` of the checkout this file sits in.
Bundles, calibration files and trace files go to ``.bench_work/`` in that
checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks  # this directory is first on sys.path when run as a script
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "gesturec" / "data"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "build_digests.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5  # set-ups timed in fresh processes for setup_s
# Reported times are at a reference machine speed.  A shared machine can
# change speed by half for tens of seconds at a time, as other tenants
# load its cores.  A fixed piece of pure-Python work (calibrate) is timed
# just before and after everything measured, and each time is scaled by
# REF_CAL_MS / (that work's time) so it reads as if the work took exactly
# REF_CAL_MS.  Wall-clock figures are printed next to them.
CAL_ROWS = 1500
CAL_KINDS = ("prep", "stroke", "hold")
REF_CAL_MS = 2.5
# Starting Python and importing gesturec and numpy drifts apart from
# pure-Python speed, so set-up's import phase is scaled instead by a fresh
# process that does fixed import work, as if that process took REF_IMPORT_MS.
REF_IMPORT_CMD = (sys.executable, "-c", "import numpy")
REF_IMPORT_MS = 200.0
# build-both spends about a quarter of an op writing files, and writes can
# slow by half while pure-Python speed holds.  That share of its ops is
# scaled by a file-rewrite calibration, as if it took REF_IO_MS.
IO_DIR = WORK / "calibrate-io"
IO_FILES = 40
IO_PAYLOAD = b"x" * 1500
REF_IO_MS = 5.0
MAX_TRACED_OPS = 30  # traced ops kept per traced run, to bound span memory
OUT_DIRS = 8  # build-both output directories, rewritten in turn
LONG_WORDS = 10_000
QUARTER_WORDS = LONG_WORDS // 4
EXTRAVERSION = {"A": 7.0, "B": 1.0}


class SetupError(Exception):
    pass


def import_program():
    """The gesturec package from this checkout's ``src/``."""
    if not (SRC / "gesturec" / "__init__.py").is_file():
        raise SetupError(f"no gesturec package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("align", "analysis", "catalog", "dsl", "emitter", "pipeline", "stimuli")
    modules = {name: importlib.import_module(f"gesturec.{name}") for name in names}
    if Path(modules["dsl"].__file__).resolve().parent != SRC / "gesturec":
        raise SetupError(f"gesturec was imported from {modules['dsl'].__file__}, not {SRC}")
    return argparse.Namespace(**modules)


def load_catalog(g):
    return g.catalog.load_catalog((DATA / "catalog.txt").read_text(encoding="utf-8"))


class BuildBoth:
    """Both experiments' stimulus sets from the shipped stories, as
    ``gesturec build`` makes them.  The seed is unused."""

    unit = "bundles"
    io_share = 0.25  # share of an op scaled by the file-rewrite calibration

    def __init__(self, g, seed: int):
        self.g = g
        self.catalog = load_catalog(g)
        self.settings = g.pipeline.PipelineSettings()
        self.expected = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else None
        self.inputs = 1
        # Ops rewrite OUT_DIRS directories in turn, as re-running
        # ``gesturec build --out`` does.  Fresh directories per op made
        # writes on ext4 slower from run to run (4 ms to over 40 ms), as
        # their deletion caught up, which would time the clean-up instead
        # of the build.  Rewriting one directory every op truncated files
        # still under writeback from the op before, which stalled some ops.
        self.out = WORK / "build-both"
        self.turn = 0
        self.written_before: dict[Path, int] = {}  # newest mtime (ns) of each directory's files

    def work(self, i: int) -> int:
        return 24

    def prepare(self, i: int) -> Path:
        if not self.written_before:  # first op of the run: fill every directory once, untimed
            shutil.rmtree(self.out, ignore_errors=True)
            for k in range(OUT_DIRS):
                out = self.op(-1, self.out / str(k))
                self.written_before[out] = max(
                    p.stat().st_mtime_ns for p in out.rglob("*") if p.is_file()
                )
        self.turn += 1
        return self.out / str(self.turn % OUT_DIRS)

    def op(self, i: int, out: Path) -> Path:
        g = self.g
        stories = {}
        for path in sorted((DATA / "stories").glob("*.dialog")):
            dialog = g.dsl.parse_dialog(path.read_text(encoding="utf-8"), story_id=path.stem)
            tsv = (DATA / "timings" / f"{path.stem}.tsv").read_text(encoding="utf-8")
            stories[dialog.story_id] = (dialog, g.align.parse_word_timings(tsv))
        personality = g.stimuli.run_personality_batch(stories, self.catalog, self.settings)
        g.stimuli.write_bundles(personality, out / "personality", "personality")
        adaptation = g.stimuli.run_adaptation_batch(stories, self.catalog, self.settings)
        g.stimuli.write_bundles(adaptation, out / "adaptation", "adaptation")
        return out

    def check(self, i: int, out: Path) -> None:
        if self.expected is None:
            raise checks.CheckFailed(f"no recorded digests at {DIGESTS}")
        self.written_before[out] = checks.check_build(
            out, self.expected, self.g.emitter, self.written_before[out]
        )


class CompileLong:
    """One ~10k-word tiled dialog compiled with A=7, B=1 and emitted for
    both speakers in both formats."""

    unit = "tokens"
    io_share = 0.0

    def __init__(self, g, seed: int):
        self.g = g
        self.catalog = load_catalog(g)
        self.settings = g.pipeline.PipelineSettings(extraversion=dict(EXTRAVERSION))
        stories = inputs.load_stories(DATA)
        for story in stories.values():
            if self.compile_text(story.dialog, story.timings) != self.compile_text(
                *inputs.tile_dialog([story], story.story_id)
            ):
                raise SetupError(f"one tile of {story.story_id!r} compiles to other bytes")
        self.long = inputs.make_long_dialog(stories, seed, LONG_WORDS, g.dsl, g.align)
        self.quarter = inputs.make_long_dialog(stories, seed, QUARTER_WORDS, g.dsl, g.align)
        self.quarter_parsed = (g.dsl.parse_dialog(self.quarter.dialog),
                               g.align.parse_word_timings(self.quarter.timings))
        self.first_output: dict | None = None
        self.inputs = 1

    def compile_text(self, text: str, tsv: str) -> dict[tuple[str, str], bytes]:
        g = self.g
        track = g.align.parse_word_timings(tsv)
        result = g.pipeline.compile_dialog(text, self.catalog, timings=track, settings=self.settings)
        return {
            (speaker, fmt): g.emitter.emit_script(result.schedule.for_speaker(speaker), fmt)
            for speaker in ("A", "B")
            for fmt in ("json", "text")
        }

    def work(self, i: int) -> int:
        return self.long.tokens

    def prepare(self, i: int):
        return None

    def op(self, i: int, _):
        return self.compile_text(self.long.dialog, self.long.timings)

    def check(self, i: int, scripts) -> None:
        checks.check_compile(scripts, self.long.onsets_ms, self.g.emitter)
        if self.first_output is None:
            self.first_output = scripts
        elif scripts != self.first_output:
            raise checks.CheckFailed("compiled bytes differ from the first op's")

    def quarter_align(self):
        dialog, track = self.quarter_parsed
        return self.g.align.align_strokes(dialog, track, lead=self.settings.scheduler.stroke_lead_s)

    def growth_4x(self, full_ms: float, quarter_ms: float) -> float:
        """Align time growth for four times the tokens, from the two
        measured sizes: 4 if alignment is linear, 16 if quadratic."""
        size = math.log(self.long.tokens / self.quarter.tokens)
        return 4 ** (math.log(full_ms / quarter_ms) / size)


class Analyze:
    """The steps of ``gesturec analyze`` plus a personality x gender x story
    ANOVA, on ten seeded studies of 1x to 10x the shipped study's size."""

    unit = "records"
    io_share = 0.0

    def __init__(self, g, seed: int):
        self.g = g
        self.studies = inputs.make_studies(seed, g.stimuli.ADAPTATION_TASKS)
        self.expected_f: dict[int, dict[str, float]] = {}  # oracle F values, made at first check
        self.factors = {
            f"{pers_id}/{speaker}": inputs.tipi_factors(story, assignment, speaker)
            for pers_id, story, assignment in inputs.personality_stimuli()
            for speaker in ("A", "B")
        }
        self.inputs = len(self.studies)

    def work(self, i: int) -> int:
        return self.studies[i % self.inputs].records

    def prepare(self, i: int):
        return None

    def op(self, i: int, _) -> dict:
        a = self.g.analysis
        records = a.read_judgments(self.studies[i % self.inputs].csv)
        preference = a.preference_table([r for r in records if r.kind == "preference"])
        ttest = a.one_sample_ttest([row.pct_a for row in preference.rows], 50.0)
        why = a.why_category_table([r for r in records if r.kind == "why"])
        tipi_records = [r for r in records if r.kind == "tipi"]
        tipi = [a.tipi_score(r.tipi_items) for r in tipi_records]
        observations = [
            (self.factors[r.stimulus_id], scores["extraversion"])
            for r, scores in zip(tipi_records, tipi)
        ]
        result = a.anova(observations, inputs.ANOVA_FACTORS, inputs.ANOVA_INTERACTIONS)
        return {"preference": preference, "ttest": ttest, "why": why, "tipi": tipi, "anova": result}

    def check(self, i: int, result: dict) -> None:
        k = i % self.inputs
        study = self.studies[k]
        if k not in self.expected_f:
            self.expected_f[k] = checks.balanced_anova_oracle(study.observations, inputs.ANOVA_FACTORS)
        checks.check_analysis(result, study, self.expected_f[k])


WORKLOADS = {"build-both": BuildBoth, "compile-long": CompileLong, "analyze": Analyze}


def calibrate() -> float:
    """Milliseconds a fixed piece of pure-Python work takes at this moment.

    The work builds, sorts, formats and re-parses small records, as the
    program does, so that cache and memory contention slow it as they slow
    the program; a bare arithmetic loop tracked the program half as well.
    """
    start = perf_counter()
    rows = [{"start": i * 0.013, "kind": CAL_KINDS[i % 3]} for i in range(CAL_ROWS)]
    rows.sort(key=lambda r: (r["kind"], -r["start"]))
    text = ",".join(f'{r["start"]:.3f}:{r["kind"]}' for r in rows)
    index: dict[str, list[float]] = {}
    for part in text.split(","):
        value, _, kind = part.partition(":")
        index.setdefault(kind, []).append(float(value))
    return (perf_counter() - start) * 1000


def calibrate_io() -> float:
    """Milliseconds rewriting IO_FILES small files in eight directories
    takes at this moment, as ``write_bundles`` rewrites its files."""
    start = perf_counter()
    for k in range(IO_FILES):
        folder = IO_DIR / str(k % 8)
        folder.mkdir(parents=True, exist_ok=True)
        (folder / f"f{k}.txt").write_bytes(IO_PAYLOAD)
    return (perf_counter() - start) * 1000


def slowdown(io_share: float) -> float:
    """How much slower than the reference speed the machine runs now."""
    cpu = calibrate() / REF_CAL_MS
    return cpu if not io_share else (1 - io_share) * cpu + io_share * calibrate_io() / REF_IO_MS


class Timing(NamedTuple):
    wall_ms: float
    ms: float  # at the reference speed: wall_ms / slowdown


def timed(fn, io_share: float = 0.0):
    """(result, Timing) of ``fn()``, calibrated just before and after it;
    ``io_share`` of the time is scaled by the file-rewrite calibration."""
    before = slowdown(io_share)
    start = perf_counter()
    result = fn()
    wall = (perf_counter() - start) * 1000
    return result, Timing(wall, wall / ((before + slowdown(io_share)) / 2))


class Loop:
    """Runs ops one after another and keeps failure counts."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()

    def run(self, i: int, tracer: tracing.Tracer | None = None) -> Timing | None:
        """One op and its checks; the op's timing, or None if it failed."""
        w = self.workload
        self.attempted += 1
        state = w.prepare(i)
        if tracer is not None:
            tracer.begin_op(i)
            tracer.install()
        try:
            output, timing = timed(lambda: w.op(i, state), w.io_share)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            w.check(i, output)
        except checks.CheckFailed as exc:
            self.fail(str(exc))
            return None
        return timing

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] += 1


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def probe_setup(workload: str, seed: int) -> Timing:
    """Time from starting a fresh process until its first op is ready.

    The probe prints ``imported`` once gesturec is imported and ``ready``
    once its inputs are made.  Only then does it calibrate itself, on the
    core that did the work, and print the median of five calibrations.
    The import phase is scaled by a reference process started right after
    the probe, the rest by the probe's calibration."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        marks = []
        for _ in ("imported", "ready"):
            marks.append((proc.stdout.readline().strip(), (perf_counter() - start) * 1000))
        cal = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if [word for word, _ in marks] != ["imported", "ready"] or code != 0:
        raise SetupError(f"set-up probe failed (exit {code}): {marks}")
    (_, imported), (_, wall) = marks
    start = perf_counter()
    subprocess.run(REF_IMPORT_CMD, check=True, timeout=120)
    ref = (perf_counter() - start) * 1000
    return Timing(wall, imported * REF_IMPORT_MS / ref + (wall - imported) * REF_CAL_MS / float(cal))


def measure(w, loop: Loop, seconds: float) -> dict[int, list[Timing]]:
    """Untraced ops for ``seconds`` after one warm-up op; timings per input."""
    loop.run(0)
    times: dict[int, list[Timing]] = {}
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        timing = loop.run(i)
        if timing is not None:
            times.setdefault(i % w.inputs, []).append(timing)
        i += 1
    return times


def end_to_end(name: str, w, loop: Loop, seconds: float, seed: int) -> dict:
    probes = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    times = measure(w, loop, seconds)
    if not times:
        raise SetupError("every op failed")
    work = sum(w.work(k) for k in times)
    summary = {}
    for field in ("wall_ms", "ms"):
        flat = [getattr(t, field) for ts in times.values() for t in ts]
        tail_ms, tail_pct = tail(flat)
        per_input = sum(statistics.median(getattr(t, field) for t in ts) for ts in times.values())
        setup_s = statistics.median(getattr(p, field) for p in probes) / 1000
        summary[field] = (setup_s, statistics.median(flat), tail_ms, work / (per_input / 1000))
    n = sum(len(ts) for ts in times.values())
    print(f"{name}: {n} timed ops, {loop.attempted} attempted, {loop.failed} failed, "
          f"failed_ratio {loop.failed / loop.attempted:.4f}")
    print(f"op_ms.tail is p{tail_pct:.1f} of {n} ops")
    for field, label in (("ms", "reference speed"), ("wall_ms", "wall clock")):
        setup_s, p50, tail_ms, per_s = summary[field]
        print(f"{label}: setup_s {setup_s:.4f}, op_ms.p50 {p50:.3f}, op_ms.tail {tail_ms:.3f}, "
              f"{w.unit}_per_s {per_s:.1f}")
    setup_s, p50, tail_ms, per_s = summary["ms"]
    return {
        "setup_s": setup_s,
        "op_ms.p50": p50,
        "op_ms.tail": tail_ms,
        "items_per_s": per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_op_layers(tracer: tracing.Tracer, first: int, scale: float) -> dict[str, float]:
    """Per-module metrics of the op whose spans start at index ``first``;
    times are multiplied by ``scale`` to bring them to the reference speed."""
    spans = tracer.spans_from(first)
    total, self_ms = tracing.layer_times(spans)
    calls = Counter(span.name for _, span in spans)
    counts = tracer.counts

    def ms(*names: str) -> float:
        return scale * sum(total[name] for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    special = [name for name in total if name.startswith("special.")]
    metrics = {
        "dsl.parse_ms": ms("dsl.parse_dialog"),
        "dsl.tokens": counts["dsl.tokens"],
        "align.timings_ms": ms("align.parse_word_timings"),
        "align.align_ms": ms("align.align_strokes"),
        "personality.ms": ms("personality.apply_personality", "personality.profile_from_extraversion"),
        "personality.kept_ratio": ratio(counts["personality.kept"], counts["personality.in"]),
        "adaptation.ms": ms("adaptation.strip_adaptation", "adaptation.resolve_variant"),
        "scheduler.schedule_ms": ms("scheduler.schedule"),
        "scheduler.validate_ms": ms("scheduler.validate_timeline"),
        "scheduler.validate_calls": calls["scheduler.validate_timeline"],
        "emitter.flatten_ms": ms("emitter.flatten"),
        "emitter.render_ms": ms("emitter.render"),
        "emitter.flatten_calls": calls["emitter.flatten"],
        "emitter.bytes_out": counts["emitter.bytes_out"],
        "emitter.duplicate_script_ratio": ratio(counts["emitter.duplicates"], counts["emitter.scripts"]),
        "stimuli.write_ms": ms("stimuli.write_bundles"),
        "stimuli.files_written": counts["stimuli.files_written"],
        "pipeline.prepare_calls": calls["pipeline.prepare_dialog"],
        "analysis.read_ms": ms("analysis.read_judgments"),
        "analysis.tables_ms": ms("analysis.preference_table", "analysis.one_sample_ttest",
                                 "analysis.why_category_table", "analysis.tipi_score"),
        "analysis.anova_ms": ms("analysis.anova"),
        "special.calls": sum(calls[name] for name in special),
        "special.ms": ms(*special),
    }
    metrics.update({f"{layer}.self_ms": scale * t for layer, t in self_ms.items()})
    return metrics


def traced(name: str, w, loop: Loop, seconds: float, seed: int) -> dict:
    tracer = tracing.Tracer()
    tracer.begin_op(-1)
    tracer.install()
    catalog_text = (DATA / "catalog.txt").read_text(encoding="utf-8")
    catalog_ms, catalog_self_ms = [], []
    for _ in range(SETUP_PROBES):
        first = len(tracer.spans)
        _, timing = timed(lambda: w.g.catalog.load_catalog(catalog_text))
        catalog_ms.append(timing.ms)
        _, self_ms = tracing.layer_times(tracer.spans_from(first))
        catalog_self_ms.append(self_ms["catalog"] * timing.ms / timing.wall_ms)
    tracer.uninstall()

    loop.run(0)
    # Traced / untraced wall time of the same input, op after op.  Wall
    # time, because the calibration after a traced op runs slower, which
    # hid most of the tracing cost in scaled times.
    overhead: list[float] = []
    per_op: list[dict[str, float]] = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline and len(per_op) < MAX_TRACED_OPS:
        plain = loop.run(i)
        first = len(tracer.spans)
        timing = loop.run(i, tracer)
        if timing is not None:
            metrics = per_op_layers(tracer, first, timing.ms / timing.wall_ms)
            if isinstance(w, CompileLong):
                _, quarter = timed(w.quarter_align)
                metrics["align.growth_4x"] = w.growth_4x(metrics["align.align_ms"], quarter.ms)
            else:
                metrics["align.growth_4x"] = 0.0
            per_op.append(metrics)
            if plain is not None:
                overhead.append(timing.wall_ms / plain.wall_ms)
        i += 1
    if not overhead:
        raise SetupError("every op failed")
    trace_path = WORK / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_path)
    print(f"{name}: {len(per_op)} traced ops, each after an untraced op on the same input, "
          f"{loop.failed} of {loop.attempted} failed; spans in {trace_path.relative_to(ROOT)}")
    metrics = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    # catalog is loaded only at set-up, so its figures come from the set-up loads
    metrics["catalog.load_ms"] = statistics.median(catalog_ms)
    metrics["catalog.self_ms"] = statistics.median(catalog_self_ms)
    metrics["trace.overhead_ratio"] = statistics.median(overhead)
    metrics["failed_ratio"] = loop.failed / loop.attempted
    return metrics


def record_digests(g) -> None:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as out:
        digests = checks.tree_digests(BuildBoth(g, 0).op(0, Path(out)))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the SHA-256 of every build-both output file and exit")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    try:
        g = import_program()
        if args.setup_probe:
            print("imported", flush=True)
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if args.record_digests:
            record_digests(g)
            return 0
        w = WORKLOADS[args.workload](g, args.seed)
        if args.setup_probe:
            print("ready", flush=True)
            print(statistics.median(calibrate() for _ in range(SETUP_PROBES)), flush=True)
            return 0
        loop = Loop(w)
        if args.trace:
            metrics = traced(args.workload, w, loop, args.seconds, args.seed)
        else:
            metrics = end_to_end(args.workload, w, loop, args.seconds, args.seed)
    except (SetupError, ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for reason, n in loop.failures.most_common():
        print(f"failed x{n}: {reason}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
