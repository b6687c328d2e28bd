"""Command-line interface.

Subcommands::

    gesturec compile --dialog F --catalog F [--timings F] [options] --out DIR
    gesturec build --experiment personality|adaptation --stories DIR
                   --timings DIR --catalog FILE --out DIR [--lenient] ...
    gesturec analyze --in CSV --report PATH

``compile`` runs one dialog through the pipeline and writes per-speaker
scripts.  ``build`` reproduces a whole experiment's stimulus set and its
manifest.  ``analyze`` scores a judgment CSV and writes a JSON report
while printing the tables.  Exit code is 0 only when every produced
timeline validates.  Each command imports the modules it runs, so
``analyze`` loads no compiler module.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .errors import (
    AlignError, DialogParseError, DomainError, GesturecError, PlanError, ScheduleError, UnknownGestureError,
)

_PIPELINE_ERRORS = (DialogParseError, PlanError, ScheduleError, UnknownGestureError, AlignError)


def _parse_extraversion(text: str) -> dict[str, float]:
    from .personality import profile_from_extraversion
    from .pipeline import PipelineSettings

    scores = PipelineSettings().extraversion
    given = set()
    malformed = f"expected A=<score>,B=<score>, got {text!r}"
    for piece in text.split(","):
        speaker, sep, value = piece.partition("=")
        speaker = speaker.strip().upper()
        if not sep or speaker not in scores:
            raise argparse.ArgumentTypeError(malformed)
        if speaker in given:
            raise argparse.ArgumentTypeError(f"speaker {speaker} is given more than once in {text!r}")
        given.add(speaker)
        try:
            scores[speaker] = float(value)
            profile_from_extraversion(scores[speaker])  # personality's rule for a score's range
        except DomainError as exc:  # a ValueError, so it is caught first
            raise argparse.ArgumentTypeError(f"speaker {speaker}: {exc}") from None
        except ValueError:
            raise argparse.ArgumentTypeError(malformed) from None
    return scores


def _load(path, parse):
    """``parse`` applied to the text of the UTF-8 file at ``path`` (``str``
    gives the text itself).  Bytes that are not UTF-8, and any
    ``GesturecError`` from ``parse``, raise a ``GesturecError`` that names
    the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise GesturecError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    except GesturecError as exc:
        raise GesturecError(f"{path}: {exc}") from None


def _settings_from_args(args) -> PipelineSettings:
    from .config import load_config
    from .pipeline import PipelineSettings

    extraversion = getattr(args, "extraversion", None) or PipelineSettings().extraversion
    settings = PipelineSettings(extraversion=extraversion, strict=args.strict)
    return _load(args.config, partial(load_config, settings=settings)) if args.config else settings


def _naming_files(exc: GesturecError, dialog_file, catalog_file, track_file) -> GesturecError:
    """``exc``, an error of running one dialog through the pipeline, with
    the files behind it in front of its message: the dialog file, and the
    catalog of an unknown gesture or the timing track of an alignment
    error."""
    files = [dialog_file]
    if isinstance(exc, UnknownGestureError):
        files.append(catalog_file)
    elif isinstance(exc, AlignError):
        files.append(track_file)
    return GesturecError(f"{', '.join(map(str, files))}: {exc}")


def _load_stories(stories_dir: Path, timings_dir: Path | None):
    """The stories of a directory by story id, and the dialog file and
    timing track file (``None`` without ``timings_dir``) of each."""
    from .align import parse_word_timings
    from .dsl import parse_dialog

    stories = {}
    sources = {}  # story id -> the dialog file that names it and its timing track file
    for path in sorted(Path(stories_dir).glob("*.dialog")):
        dialog = _load(path, partial(parse_dialog, story_id=path.stem))
        story_id = dialog.story_id
        if story_id in sources:
            raise GesturecError(f"story {story_id!r} is named by both {sources[story_id][0]} and {path}")
        track = timing_path = None
        if timings_dir is not None:
            timing_path = Path(timings_dir) / f"{path.stem}.tsv"
            if not timing_path.exists():
                raise GesturecError(f"no timing track for story {path.stem!r} at {timing_path}")
            track = _load(timing_path, parse_word_timings)
        sources[story_id] = (path, timing_path)
        stories[story_id] = (dialog, track)
    if not stories:
        raise GesturecError(f"no .dialog files in {stories_dir}")
    return stories, sources


def _cmd_compile(args) -> int:
    from .align import parse_word_timings
    from .catalog import load_catalog
    from .files import write_file
    from .pipeline import compile_dialog
    from .stimuli import speaker_scripts

    settings = _settings_from_args(args)
    catalog = _load(args.catalog, load_catalog)
    timings = _load(args.timings, parse_word_timings) if args.timings else None
    source = _load(args.dialog, str)
    try:
        result = compile_dialog(source, catalog, timings=timings, settings=settings, variant=args.variant)
    except _PIPELINE_ERRORS as exc:
        raise _naming_files(exc, args.dialog, args.catalog, args.timings) from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, content in speaker_scripts(result.schedule).items():
        write_file(out_dir / filename, content)
    for note in result.schedule.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    print(f"wrote scripts for A and B to {out_dir}")
    return 0


def _cmd_build(args) -> int:
    from .catalog import load_catalog
    from .stimuli import run_adaptation_batch, run_personality_batch, write_bundles

    settings = _settings_from_args(args)
    catalog = _load(args.catalog, load_catalog)
    stories, sources = _load_stories(Path(args.stories), Path(args.timings) if args.timings else None)
    run_batch = run_personality_batch if args.experiment == "personality" else run_adaptation_batch
    try:
        bundles = run_batch(stories, catalog, settings)
    except _PIPELINE_ERRORS as exc:
        if exc.story_id is None:  # a task whose story is missing: name the directory it is missing from
            raise GesturecError(f"{args.stories}: {exc}") from None
        dialog_file, track_file = sources[exc.story_id]
        raise _naming_files(exc, dialog_file, args.catalog, track_file) from None
    manifest = write_bundles(bundles, Path(args.out), args.experiment)
    for bundle in bundles:
        for note in bundle.diagnostics:
            print(f"note: {bundle.name}: {note}", file=sys.stderr)
    print(f"wrote {manifest['bundle_count']} bundles to {args.out}")
    return 0


def _preference_counts(row) -> dict:
    """A preference row's counts and percentages as the report gives them."""
    return {
        "count_a": row.count_a, "count_na": row.count_na, "pct_a": round(row.pct_a, 1), "pct_na": round(row.pct_na, 1),
    }


def _cmd_analyze(args) -> int:
    from . import analysis  # only analyze reads judgments: compile and build skip the module
    from .files import write_json
    records = _load(args.infile, analysis.read_judgments)
    preference = [r for r in records if r.kind == "preference"]
    why = [r for r in records if r.kind == "why"]
    tipi = [r for r in records if r.kind == "tipi"]

    report: dict = {}
    if preference:
        table = analysis.preference_table(preference)
        print(analysis.format_preference_table(table))
        report["preference"] = {
            "rows": [{"version": r.version, **_preference_counts(r)} for r in table.rows],
            "totals": _preference_counts(table.totals),
        }
        if len(table.rows) >= 2:
            ttest = analysis.one_sample_ttest([r.pct_a for r in table.rows], 50.0)
            print(
                f"\npreference vs chance: t({ttest.df[0]:.0f}) = {ttest.value:.3f}, "
                f"p = {ttest.p_value:.3f}"
            )
            report["ttest_vs_50"] = {
                "t": ttest.value,
                "df": ttest.df[0],
                "p": ttest.p_value,
            }
    if why:
        table = analysis.why_category_table(why)
        print()
        print(analysis.format_why_table(table))
        report["why"] = {
            row.version: {cat: round(pct, 1) for cat, pct in row.percentages.items()}
            for row in table.rows + ((table.totals,) if table.totals else ())
        }
    if tipi:
        by_stimulus: dict[str, list[dict[str, float]]] = {}
        for record in tipi:
            by_stimulus.setdefault(record.stimulus_id, []).append(analysis.tipi_score(record.tipi_items))
        report["tipi_means"] = {
            stimulus: {
                trait: round(sum(s[trait] for s in scores) / len(scores), 2)
                for trait in analysis.TIPI_TRAITS
            }
            for stimulus, scores in sorted(by_stimulus.items())
        }
        print("\nTIPI trait means per stimulus:")
        for stimulus, means in report["tipi_means"].items():
            print(f"  {stimulus}: " + ", ".join(f"{t}={v}" for t, v in means.items()))

    Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    write_json(Path(args.report), report)
    print(f"\nreport written to {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gesturec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile one dialog to gesture scripts")
    p_compile.add_argument("--dialog", required=True)
    p_compile.add_argument("--catalog", required=True)
    p_compile.add_argument("--timings")
    p_compile.add_argument("--out", required=True)
    p_compile.add_argument("--extraversion", type=_parse_extraversion, default=None,
                           help="per-speaker scores, e.g. A=7,B=1")
    p_compile.add_argument("--variant", choices=("adapted", "nonadapted"), default="nonadapted")
    p_compile.add_argument("--config", help="key = value overrides file")
    p_compile.add_argument("--lenient", dest="strict", action="store_false")
    p_compile.set_defaults(func=_cmd_compile)

    p_build = sub.add_parser("build", help="build an experiment's stimulus bundles")
    p_build.add_argument("--experiment", required=True, choices=("personality", "adaptation"))
    p_build.add_argument("--stories", required=True, help="directory of .dialog files")
    p_build.add_argument("--timings", help="directory of <story>.tsv timing tracks")
    p_build.add_argument("--catalog", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--config")
    p_build.add_argument("--lenient", dest="strict", action="store_false")
    p_build.set_defaults(func=_cmd_build)

    p_analyze = sub.add_parser("analyze", help="score a judgment CSV")
    p_analyze.add_argument("--in", dest="infile", required=True)
    p_analyze.add_argument("--report", required=True)
    p_analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GesturecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
