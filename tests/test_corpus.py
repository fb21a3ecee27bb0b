"""Replay the contract corpus: every recorded run gives the recorded exit
code, stdout digest and stderr (see corpus.py, which also says how to
regenerate the table after a change that moves an output on purpose)."""

from toricflow.cli import COMMANDS

import corpus

# The caps that a run trips in under 0.5 s.  DD_PAIR_CAP and the first-root
# search's ROOT_STEP_CAP take seconds to reach, so no run trips them.
CHEAP_CAPS = ["HILBERT_CANDIDATE_CAP", "DECOMPOSE_NODE_CAP", "ROOT_STEP_CAP", "POWER_BIT_CAP",
              "RANK_LIMIT", "the int->str digit limit"]


def test_the_corpus_covers_every_subcommand_format_exit_code_and_cheap_cap():
    _, runs = corpus.runs()
    recorded = corpus.table()["runs"]
    words = {word for _, _, _, argv in runs for word in argv}
    assert set(COMMANDS) | set(corpus.FORMATS) <= words
    assert {outcome[0] for outcome in recorded.values()} == {0, 2, 3, 4}
    errors = "".join(outcome[2] for outcome in recorded.values() if outcome[0] == 4)
    assert [cap for cap in CHEAP_CAPS if cap not in errors] == []


def test_the_corpus_replays_unchanged():
    scenes, runs = corpus.runs()
    recorded = corpus.table()
    moved = ["scene %s: digest %s, now %s" % (name, recorded["scenes"].get(name),
                                             corpus.digest(text))
             for name, text in scenes.items()
             if recorded["scenes"].get(name) != corpus.digest(text)]
    moved += ["scene %s: recorded, no longer built" % name
              for name in recorded["scenes"].keys() - scenes.keys()]
    old_runs = recorded["runs"]
    for run_id, _, text, argv in runs:
        new = corpus.outcome(text, argv)
        if old_runs.get(run_id) != new:
            moved.append("%s\n    was %s\n    now %s" % (run_id, old_runs.get(run_id), new))
    moved += ["%s: recorded, no longer run" % run_id
              for run_id in old_runs.keys() - {run[0] for run in runs}]
    assert not moved, "%d moved:\n%s" % (len(moved), "\n".join(moved))
