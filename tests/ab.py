"""Interleaved timing of one benchmark workload on two source trees.

    python tests/ab.py --against REV                       # cli-mix, seed 1, 25 reps
    python tests/ab.py --against REV --workload minor --seed 2 --reps 5

Copies `src/clutterkit` of git revision REV and of the working tree into a
temporary directory as two packages, `ab_old` and `ab_new`.  Builds the
named workload of `bench/workloads.py` for each of them from one seed, so
that op i is the same call on both trees.  Then runs every op `--reps`
times on both trees, one after the other, swapping which tree runs first
from rep to rep, so that drift in machine speed falls on both alike.
Every answer is checked by `bench/run.py`'s `Runner` for that tree, which
names the first ten wrong ones on standard error.  Prints, for each op kind
and for the whole round, the sum over ops of each op's fastest run, and the
p50 and p90 of those per-op minima.  Exits 1 if any answer is wrong.

The process binds itself to one vCPU, as `bench/run.py` does.  It reads
`bench/` and writes nothing there.  pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import importlib
import os
import random
import shutil
import subprocess
import sys
import tempfile
import zipfile
from collections import defaultdict
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("old", "new")


def _install(rev: str, pkgs: Path) -> None:
    """Put REV's package and the working tree's under pkgs as ab_old and ab_new."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=zip", rev,
                              "src/clutterkit"], check=True, stdout=subprocess.PIPE).stdout
    with zipfile.ZipFile(BytesIO(archive)) as zf:
        zf.extractall(pkgs / "archive")
    shutil.move(pkgs / "archive" / "src" / "clutterkit", pkgs / "ab_old")
    shutil.copytree(ROOT / "src" / "clutterkit", pkgs / "ab_new",
                    ignore=shutil.ignore_patterns("__pycache__"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the git revision to time the working tree against")
    parser.add_argument("--workload", default="cli-mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=25)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "bench"))
    from run import Runner, percentile
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    with tempfile.TemporaryDirectory() as tmp:
        pkgs = Path(tmp)
        _install(args.against, pkgs)
        sys.path.insert(0, str(pkgs))
        runners, ops = {}, {}
        for tree in TREES:
            ck = importlib.import_module(f"ab_{tree}")
            runners[tree] = Runner(ck)
            importlib.import_module(f"ab_{tree}.cli")
            workdir = pkgs / f"work_{tree}"
            workdir.mkdir()
            ops[tree] = WORKLOADS[args.workload](ck, random.Random(args.seed), workdir).ops
        kinds = [op.kind for op in ops["old"]]
        if kinds != [op.kind for op in ops["new"]]:
            print("error: the two trees build different rounds", file=sys.stderr)
            return 1

        best = {tree: [float("inf")] * len(kinds) for tree in TREES}
        for rep in range(args.reps):
            order = TREES if rep % 2 == 0 else TREES[::-1]
            for i in range(len(kinds)):
                for tree in order:
                    best[tree][i] = min(best[tree][i], runners[tree].run(ops[tree][i]))

    print(f"workload {args.workload} seed {args.seed}: {len(kinds)} ops, {args.reps} reps; "
          f"old = {args.against}, new = working tree; sums of per-op minima in ms")
    print(f"{'kind':28s} {'ops':>4s} {'old':>10s} {'new':>10s} {'change':>8s}")
    per_kind = {tree: defaultdict(float) for tree in TREES}
    for tree in TREES:
        for kind, dt in zip(kinds, best[tree]):
            per_kind[tree][kind] += dt
    rows = [(kind, kinds.count(kind), per_kind["old"][kind], per_kind["new"][kind])
            for kind in sorted(set(kinds))]
    rows.append(("total", len(kinds), sum(best["old"]), sum(best["new"])))
    for kind, count, old, new in rows:
        print(f"{kind:28s} {count:4d} {old * 1e3:10.3f} {new * 1e3:10.3f} "
              f"{(new / old - 1) * 100:+7.1f}%")
    for q in (50, 90):
        old, new = (percentile(sorted(best[tree]), q) for tree in TREES)
        print(f"{f'p{q} of the per-op minima':33s} {old * 1e3:10.4f} {new * 1e3:10.4f} "
              f"{(new / old - 1) * 100:+7.1f}%")
    wrong = {tree: runners[tree].failed for tree in TREES}
    print(f"wrong answers: old {wrong['old']}, new {wrong['new']}")
    return 1 if any(wrong.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
