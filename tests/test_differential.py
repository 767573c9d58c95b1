"""The differential records of a reduced input set, pinned by digest.

The answer digest moves only with a documented change of behaviour and
the trip digest with a change of where a budget trips; a change that
moves either names it in CHANGES.md.  `python tests/differential.py
--reduced --against REV` lists the records that moved.
"""
from differential import records, summary

ANSWERS = "0bf9997b17d466ecf18d2edf5ac63134f8210f4441880ce24c8b238e177190be"
TRIPS = "39488ac2c2373434c1726d4b11cd91fb2e8c3d49f28e61f89b6c61031f6b7fd1"


def test_reduced_records_keep_their_digests():
    assert summary(records(reduced=True)) == (7968, 1674, ANSWERS, TRIPS)
