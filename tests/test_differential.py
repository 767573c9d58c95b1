"""The differential records, pinned by their counts and digests.

The answer digest moves only with a documented change of behaviour and
the trip digest with a change of where a budget trips; a change that
moves either names it in CHANGES.md.  `python tests/differential.py
--against REV` lists the records that moved.
"""
from differential import records, summary

FULL = (83184, 15975,
        "fdfb067f6b859a0d9a0e42b2bfe00fc445cb4248cbe73342cb842afbd47cc91a",
        "814fe998074cd41ba0636d5ce72953c0a64ec3e70aeb972cefcb3a2d88529d24")


def test_records_keep_their_digests():
    assert summary(records()) == FULL
