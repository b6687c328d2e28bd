"""Damaged inputs: each run of ``compile``, ``build`` or ``analyze`` on a
mutated copy of a shipped input either succeeds, writing scripts that read
back to their bytes, or exits 1 with one ``error:`` line naming that file.

The mutations are byte flips, NUL or 0xFF insertions, truncation, and
deleted or doubled lines, drawn from a fixed seed per input kind.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import DATA_DIR
from gesturec.cli import main
from gesturec.emitter import emit_document, read_script

CASES_PER_KIND = 60
MUTATIONS = ("flip", "nul", "ff", "truncate", "delete line", "double line")
CONFIG = (
    b"# run settings at their defaults\n"
    b"extravert.max_rate = 2\n"
    b"introvert.expanse_offset = -10\n"
    b"adaptation.speed_factor = 1.25\n"
    b"scheduler.hold_threshold_s = 2.5\n"
)
FORMATS = {".json": "json", ".txt": "text"}
TIPI_ROWS = b"s9,storm/F-extravert/A,tipi,7|2|5|3|6|1|4|4|5|2\ns9,storm/F-extravert/B,tipi,02|4|04|5|3|006|4|4|3|5\n"
# the file of each input kind that a case mutates, under the case directory
TARGETS = {
    "dialog": "stories/garden.dialog",
    "timings": "timings/garden.tsv",
    "catalog": "catalog.txt",
    "config": "run.cfg",
    "judgments": "judgments.csv",
}


def mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One mutation of ``data``, and its name."""
    how = rng.choice(MUTATIONS)
    if how.endswith("line"):
        lines = data.splitlines(keepends=True)
        k = rng.randrange(len(lines))
        lines[k:k + 1] = [] if how == "delete line" else [lines[k]] * 2
        return how, b"".join(lines)
    if how == "flip":
        pos = rng.randrange(len(data))
        return how, data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1:]
    pos = rng.randrange(len(data) + 1)
    if how == "truncate":
        return how, data[:pos]
    return how, data[:pos] + (b"\0" if how == "nul" else b"\xff") + data[pos:]


def _inputs(case):
    """A fresh copy of every shipped input under ``case``."""
    (case / "stories").mkdir(parents=True)
    (case / "timings").mkdir()
    for kind in ("stories", "timings"):
        for path in (DATA_DIR / kind).iterdir():
            (case / kind / path.name).write_bytes(path.read_bytes())
    (case / "catalog.txt").write_bytes((DATA_DIR / "catalog.txt").read_bytes())
    (case / "run.cfg").write_bytes(CONFIG)
    (case / "judgments.csv").write_bytes((DATA_DIR / "adaptation_judgments.csv").read_bytes() + TIPI_ROWS)


def _argv(command, case, out, rng):
    if command == "analyze":
        return ["analyze", "--in", str(case / "judgments.csv"), "--report", str(out / "report.json")]
    common = ["--catalog", str(case / "catalog.txt"), "--config", str(case / "run.cfg"), "--out", str(out)]
    if command == "compile":
        return [
            "compile", "--dialog", str(case / "stories" / "garden.dialog"),
            "--timings", str(case / "timings" / "garden.tsv"),
            "--variant", rng.choice(("adapted", "nonadapted")), *common,
        ]
    return [
        "build", "--experiment", command, "--stories", str(case / "stories"),
        "--timings", str(case / "timings"), *common,
    ]


def _digest_tree(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() for p in root.rglob("*.*")}


@pytest.mark.parametrize("seed, kind", list(enumerate(TARGETS)), ids=list(TARGETS))
def test_a_damaged_input_is_used_or_refused_by_one_error_line_naming_it(tmp_path, monkeypatch, capsys, seed, kind):
    monkeypatch.chdir(tmp_path)
    shipped = _digest_tree(DATA_DIR)
    rng = random.Random(seed)
    commands = ("analyze",) if kind == "judgments" else ("compile", "personality", "adaptation")
    failures = []
    outcomes = set()
    for number in range(CASES_PER_KIND):
        case = tmp_path / f"case{number}"
        _inputs(case)
        target = case / TARGETS[kind]
        how, data = mutate(target.read_bytes(), rng)
        target.write_bytes(data)
        out = case / "out"
        argv = _argv(rng.choice(commands), case, out, rng)
        where = f"case {number} ({how} of {kind}, {' '.join(argv[:3])})"
        try:
            code = main(argv)
        except Exception as exc:  # nothing may escape main
            failures.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        outcomes.add(code)
        if code == 0:
            if "error:" in err:
                failures.append(f"{where}: exit 0 with {err!r}")
            if argv[0] == "analyze":
                json.loads((out / "report.json").read_bytes())
                continue
            scripts = list(out.rglob("*.script.*"))
            if not scripts:
                failures.append(f"{where}: exit 0 with no script written")
            for path in scripts:
                written = path.read_bytes()
                if emit_document(read_script(written), FORMATS[path.suffix]) != written:
                    failures.append(f"{where}: {path} does not read back to its bytes")
        elif code != 1 or err.count("\n") != 1 or not err.startswith("error: ") or str(target) not in err:
            failures.append(f"{where}: exit {code} with {err!r}, which does not name {target}")
        elif out.exists():
            failures.append(f"{where}: exit 1 but {out} was written")
    assert not failures, "\n".join(failures)
    assert 1 in outcomes  # the seed reaches the refusals
    assert _digest_tree(DATA_DIR) == shipped
    assert {p.name for p in tmp_path.iterdir()} == {f"case{n}" for n in range(CASES_PER_KIND)}
