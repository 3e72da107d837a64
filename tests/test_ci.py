"""The CI workflow keeps one copy of every pinned output."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pinned_outputs_live_in_one_script():
    # every digest is in .github/pins.sh and each job runs it once, so a pin
    # cannot change in one job and not the other; the workflow is read as
    # text, since the test extras ship no YAML parser
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert not re.search(r"\b[0-9a-f]{64}\b", workflow)
    names_and_bodies = re.split(r"^  ([\w-]+):\n", workflow.split("\njobs:\n", 1)[1], flags=re.M)[1:]
    jobs = dict(zip(names_and_bodies[::2], names_and_bodies[1::2]))
    assert set(jobs) == {"tier1", "console-script"}
    for body in jobs.values():
        assert body.count("bash .github/pins.sh") == 1
    assert (ROOT / ".github" / "pins.sh").is_file()


def test_no_pinned_command_runs_left_of_an_and_list():
    # under `set -e` a failing command on the left of `&&` does not stop the
    # script, so a braidcert command there could fail and the pins still pass
    lines = (ROOT / ".github" / "pins.sh").read_text().splitlines()
    assert not [line for line in lines if re.search(r"\bbraidcert\b.*&&", line)]
