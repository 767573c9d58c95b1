"""The differential records of a reduced input set, pinned by digest.

The answer digest moves only with a documented change of behaviour and
the trip digest with a change of where a budget trips; a change that
moves either names it in CHANGES.md.  `python tests/differential.py
--reduced --against REV` lists the records that moved.

FULL pins the full set's summary in the same way.  It takes too long for
this suite, so CI's "Full differential set" step checks it against the
output of `python tests/differential.py --digest`.
"""
from differential import records, summary

ANSWERS = "8205aa1ce71b8915c9f6027b617383500c7a27fbeecd1ad916dbe3c8401471aa"
TRIPS = "0a01866c5c18aabd2c65f1e574eb8c4929f27bb3804e2efa6742ebc06dba3bab"
FULL = (83184, 15975,
        "fdfb067f6b859a0d9a0e42b2bfe00fc445cb4248cbe73342cb842afbd47cc91a",
        "814fe998074cd41ba0636d5ce72953c0a64ec3e70aeb972cefcb3a2d88529d24")


def test_reduced_records_keep_their_digests():
    assert summary(records(reduced=True)) == (6288, 869, ANSWERS, TRIPS)
