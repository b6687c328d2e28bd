"""Batch construction of experiment stimuli.

Two experiment families:

* personality: per story, two bundles with identical gesture scripts in
  which speaker A is the extravert and B the introvert; only the agent
  genders (model and voice) are swapped, one with the female agent
  extraverted, one with the male.
* adaptation: per task (story plus turn structure such as ABA or ABABA),
  an adapted and a non-adapted bundle sharing byte-identical context turns
  and the same audio reference, diverging only in the final response turn.

A bundle is a directory with one JSON and one text script per speaker plus
a ``bundle.json`` metadata file; a batch writes ``manifest.json`` at the
output root.  Each batch builds story by story, and sets the ``story_id``
of an error raised while a story is built to the story's key in
``stories``, by which the CLI names its files.  The adaptation batch
prepares each story once, through its longest turn structure, and
truncates that prepared dialog per task.  Files are written on plain
``str`` paths, joined with ``os.path.join``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .adaptation import resolve_variant, strip_adaptation
from .align import WordTimingTrack
from .catalog import GestureCatalog
from .dsl import SPEAKERS, AnnotatedDialog, truncate_dialog
from .emitter import emit_script
from .errors import GesturecError, PlanError, ScheduleError
from .files import write_file, write_json
# profile_from_extraversion is unused here but stays bound for perfbench/tracing.py BINDINGS (ROADMAP item 4)
from .personality import EXTRAVERSION_MAX, EXTRAVERSION_MIN, profile_from_extraversion
from .pipeline import PipelineSettings, prepare_dialog
from .scheduler import ScheduleResult, schedule

GENDER_VOICE = {"F": "crystal", "M": "mike"}
GENDER_MODEL = {"F": "f01", "M": "m01"}

# Speaker role A is performed by the female agent, B by the male, in the
# adaptation experiment; the personality experiment swaps the genders
# between the two bundles of each story.
ADAPTATION_GENDERS = {"A": "F", "B": "M"}

PERSONALITY_ASSIGNMENTS = ("F-extravert", "M-extravert")

# The eight shipped adaptation tasks: two turn structures per story, one
# ending on each agent.  The responder is the speaker of the final letter.
ADAPTATION_TASKS: tuple[tuple[str, str], ...] = (
    ("garden", "ABA"),
    ("garden", "ABAB"),
    ("pet", "ABABA"),
    ("pet", "ABABAB"),
    ("protest", "ABAB"),
    ("protest", "ABABA"),
    ("storm", "ABABA"),
    ("storm", "ABABAB"),
)


@dataclass
class StimulusBundle:
    name: str  # directory path relative to the batch output root
    metadata: dict  # bundle.json: story, experiment, label, agents, ...
    scripts: dict[str, bytes]  # filename -> content
    diagnostics: tuple[str, ...] = ()  # what the lenient schedule of these scripts dropped


def speaker_scripts(result: ScheduleResult, speakers: tuple[str, ...] = SPEAKERS) -> dict[str, bytes]:
    """The script files of one schedule by file name: a JSON and a text
    script per speaker of ``speakers``."""
    files = {}
    for speaker in speakers:
        timeline = result.for_speaker(speaker)
        files[f"{speaker}.script.json"] = emit_script(timeline, "json")
        files[f"{speaker}.script.txt"] = emit_script(timeline, "text")
    return files


def check_story_id(story_id: str) -> None:
    """Refuse a story id that cannot name one directory under a batch's
    output root, where each bundle's path begins with it."""
    if story_id in ("", ".", "..") or any(c in story_id for c in "/\\\0"):
        raise PlanError(f"story id {story_id!r} cannot name a bundle directory (empty, '.', '..', '/', '\\' or NUL)")


def _bundle(
    dialog: AnnotatedDialog, name: str, experiment: str, label: str, result: ScheduleResult,
    scripts: dict[str, bytes], gender_of: dict[str, str], **metadata,
) -> StimulusBundle:
    check_story_id(dialog.story_id)
    metadata.update(
        story=dialog.story_id,
        experiment=experiment,
        label=label,
        agents={
            speaker: {"gender": gender, "voice": GENDER_VOICE[gender], "model": GENDER_MODEL[gender]}
            for speaker, gender in sorted(gender_of.items())
        },
        audio=f"{dialog.story_id}.wav",
        scripts={speaker: f"{speaker}.script.json" for speaker in SPEAKERS},
    )
    return StimulusBundle(name, metadata, scripts, tuple(result.diagnostics))


def _schedule(bundles: str, dialog: AnnotatedDialog, settings: PipelineSettings) -> ScheduleResult:
    """The schedule of ``dialog`` under ``settings``; a strict schedule
    error names the bundles it was for in front of its message."""
    try:
        return schedule(dialog, settings.scheduler, strict=settings.strict)
    except ScheduleError as exc:
        raise type(exc)(f"{bundles}: {exc}") from None


def build_personality_pair(
    dialog: AnnotatedDialog,
    catalog: GestureCatalog,
    settings: PipelineSettings = PipelineSettings(),
    track: WordTimingTrack | None = None,
) -> tuple[StimulusBundle, StimulusBundle]:
    """Two stimulus bundles whose gesture scripts are identical per role;
    only the gender metadata differs between them.

    Speaker A performs at the extravert score, B at the introvert score,
    and the bundles state those scores.
    """
    extraversion = {"A": EXTRAVERSION_MAX, "B": EXTRAVERSION_MIN}
    prepared = prepare_dialog(dialog, catalog, track, replace(settings, extraversion=extraversion))
    names = ", ".join(f"{dialog.story_id}/{assignment}" for assignment in PERSONALITY_ASSIGNMENTS)
    result = _schedule(names, strip_adaptation(prepared), settings)
    scripts = speaker_scripts(result)

    bundles = []
    for label, assignment in zip(("A", "B"), PERSONALITY_ASSIGNMENTS):
        extravert_gender = assignment[0]  # "F" or "M"
        other_gender = "M" if extravert_gender == "F" else "F"
        bundles.append(_bundle(
            dialog, f"{dialog.story_id}/{assignment}", "personality", label, result, dict(scripts),
            {"A": extravert_gender, "B": other_gender},
            gender_assignment=assignment,
            extraverted_role="A",
            extraversion=extraversion,
        ))
    return bundles[0], bundles[1]


def _validate_structure(dialog: AnnotatedDialog, structure: str) -> None:
    if len(structure) < 2:
        raise PlanError(f"turn structure too short: {structure!r}")
    if len(structure) > len(dialog.turns):
        raise PlanError(
            f"structure {structure!r} needs {len(structure)} turns, "
            f"dialog {dialog.story_id!r} has {len(dialog.turns)}"
        )
    actual = "".join(t.speaker for t in dialog.turns[: len(structure)])
    if actual != structure:
        raise PlanError(f"structure {structure!r} does not match dialog turns {actual!r}")


def build_adaptation_pair(
    dialog: AnnotatedDialog,
    turn_structure: str,
    catalog: GestureCatalog,
    settings: PipelineSettings = PipelineSettings(),
    track: WordTimingTrack | None = None,
) -> tuple[StimulusBundle, StimulusBundle]:
    """(adapted, non-adapted) bundles for one task.

    The dialog is truncated to the turn structure; both bundles share the
    context turns and the audio reference and differ only in the response
    turn, spoken by the responder: the speaker of the structure's final
    letter.
    """
    _validate_structure(dialog, turn_structure)
    prepared = prepare_dialog(truncate_dialog(dialog, len(turn_structure)), catalog, track, settings)
    return _adaptation_pair(dialog, turn_structure, prepared, settings)


def _adaptation_pair(
    dialog: AnnotatedDialog, turn_structure: str, prepared: AnnotatedDialog, settings: PipelineSettings,
) -> tuple[StimulusBundle, StimulusBundle]:
    """(adapted, non-adapted) bundles for one task of ``dialog``, from
    ``prepared``: its first ``len(turn_structure)`` turns, prepared."""
    task = f"{dialog.story_id}_{turn_structure}"
    responder = turn_structure[-1]

    adapted = _schedule(f"{task}/adapted", resolve_variant(prepared, settings.adaptation), settings)
    nonadapted = _schedule(f"{task}/nonadapted", strip_adaptation(prepared), settings)
    # Only the responder's scripts differ, so the adapted bundle takes the
    # non-adapted scripts, emitted once, with the responder's replaced; each
    # bundle's diagnostics are those of its own variant's schedule.
    nonadapted_scripts = speaker_scripts(nonadapted)
    bundles = []
    for label, variant, result, scripts in (
        ("A", "adapted", adapted, {**nonadapted_scripts, **speaker_scripts(adapted, (responder,))}),
        ("B", "nonadapted", nonadapted, nonadapted_scripts),
    ):
        bundles.append(_bundle(
            dialog, f"{task}/{variant}", "adaptation", label, result, scripts, ADAPTATION_GENDERS,
            task=task,
            turn_structure=turn_structure,
            responder=responder,
            context_turns=len(turn_structure) - 1,
            variant=variant,
        ))
    return bundles[0], bundles[1]


def run_personality_batch(
    stories: dict[str, tuple[AnnotatedDialog, WordTimingTrack | None]],
    catalog: GestureCatalog,
    settings: PipelineSettings = PipelineSettings(),
) -> list[StimulusBundle]:
    """8 bundles for 4 stories: two gender assignments each."""
    bundles: list[StimulusBundle] = []
    for story_id in sorted(stories):
        dialog, track = stories[story_id]
        try:
            bundles.extend(build_personality_pair(dialog, catalog, settings, track))
        except GesturecError as exc:
            exc.story_id = story_id
            raise
    return bundles


def run_adaptation_batch(
    stories: dict[str, tuple[AnnotatedDialog, WordTimingTrack | None]],
    catalog: GestureCatalog,
    settings: PipelineSettings = PipelineSettings(),
) -> list[StimulusBundle]:
    """16 bundles for the 8 shipped tasks: adapted and non-adapted each.

    Story by story, in task order, the story's structures are checked, it
    is prepared once, through its longest structure, and each task truncates
    that prepared dialog, which gives the dialog the task would prepare
    alone (``build_adaptation_pair``), since alignment and personality act
    turn by turn.  So a structure or prepare error of a story's longer task
    comes before a schedule error of its shorter one.
    """
    bundles: list[StimulusBundle] = []
    for story_id in dict.fromkeys(task_story for task_story, _ in ADAPTATION_TASKS):
        structures = [structure for task_story, structure in ADAPTATION_TASKS if task_story == story_id]
        if story_id not in stories:
            raise PlanError(f"no story {story_id!r} for task {story_id}_{structures[0]}")
        dialog, track = stories[story_id]
        try:
            for structure in structures:
                _validate_structure(dialog, structure)
            prepared = prepare_dialog(truncate_dialog(dialog, max(map(len, structures))), catalog, track, settings)
            for structure in structures:
                bundles.extend(_adaptation_pair(dialog, structure, truncate_dialog(prepared, len(structure)), settings))
        except GesturecError as exc:
            exc.story_id = story_id
            raise
    return bundles


def write_bundles(bundles: list[StimulusBundle], out_dir: str | os.PathLike, experiment: str) -> dict:
    """Write bundle directories plus a manifest, the manifest last; returns
    the manifest.  Files already in ``out_dir`` that this batch does not
    write are left as they are.  Paths are joined as strings; a file where
    a directory goes raises ``FileExistsError``."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    manifest_entries = []
    for bundle in bundles:
        bundle_dir = os.path.join(out_dir, bundle.name)
        os.makedirs(bundle_dir, exist_ok=True)
        for filename, content in sorted(bundle.scripts.items()):
            write_file(os.path.join(bundle_dir, filename), content)
        write_json(os.path.join(bundle_dir, "bundle.json"), bundle.metadata)
        manifest_entries.append(
            {"path": bundle.name, **{key: bundle.metadata[key] for key in ("story", "experiment", "label")}}
        )
    manifest = {
        "experiment": experiment,
        "bundle_count": len(bundles),
        "bundles": manifest_entries,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
