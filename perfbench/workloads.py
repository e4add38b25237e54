"""Job lists of the three benchmark workloads and the seeded qf batch.

A job is what a user runs: a `wpsieve` command line, executed in-process
through `wpsieve.cli.main` with stdout captured, or a short library call
where the CLI has no command for it (building a residue file from a cover,
a batch of unit reductions).  Every job is single-process: `--workers 1` is
passed explicitly and `WPSIEVE_WORKERS` is cleared by the caller.

Placeholders `{work}` in an argv are replaced by the pass's work directory,
which holds every file the program reads: the residue file and census CSV
written by earlier jobs of the same pass, and the generated qf batch.
"""

from __future__ import annotations

import random
from typing import NamedTuple

W1 = ("--workers", "1")


class Job(NamedTuple):
    name: str
    kind: str  # "cli", "omega" or "qf-batch"
    argv: tuple = ()
    save_as: str | None = None  # file in {work} that later jobs read


WORKLOADS = {
    # The paper's headline census; the thin column is solved by
    # Cover.column_members.  Never walks a box, never touches sieve or qf.
    "census-thin": (
        Job("census-g1-thin", "cli",
            ("census", "--genus", "1", "--heights", "2,3,4,5,6,7,8", *W1),
            save_as="census_g1.csv"),
        Job("census-g2-thin", "cli",
            ("census", "--genus", "2", "--heights", "1,5/4,3/2", *W1)),
        Job("fit-thin", "cli",
            ("fit", "--input", "{work}/census_g1.csv", "--column", "thin", *W1)),
    ),
    # The same census layer on its other paths: smooth-only (resultants,
    # interpolation, integer-root filtering per prefix) and the pointwise
    # disc-square tester (has_integer_root -> divisors per tuple).  Neither
    # calls column_members.
    "census-smooth": (
        Job("census-g1-smooth", "cli",
            ("census", "--genus", "1", "--heights", "2,3,4,5,6,7",
             "--thin", "none", "--smooth-only", *W1)),
        Job("census-g1-disc-square", "cli",
            ("census", "--genus", "1", "--heights", "1,3/2,2,9/4",
             "--thin", "disc-square", *W1)),
        Job("census-g2-smooth", "cli",
            ("census", "--genus", "2", "--heights", "1,5/4",
             "--thin", "none", "--smooth-only", *W1)),
    ),
    # The sieve side of the paper end to end on one box, then the
    # real-quadratic layer: box walks, survivors and qf, no census kernels.
    "chain": (
        Job("omega-two-torsion-g1", "omega", save_as="omega.txt"),
        Job("image-density", "cli",
            ("image-density", "--cover", "two-torsion-g1", "--p-max", "25", *W1)),
        Job("count-4-6", "cli",
            ("count", "--weights", "4,6", "--heights", "1,2,3", *W1)),
        Job("count-1-2-3", "cli",
            ("count", "--weights", "1,2,3", "--heights", "5", *W1)),
        Job("count-integral-1-1-1", "cli",
            ("count-integral", "--weights", "1,1,1", "--heights", "20", *W1)),
        Job("sieve-bound", "cli",
            ("sieve-bound", "--weights", "4,6", "--height-max", "5", "--Q", "25",
             "--residues", "{work}/omega.txt", *W1)),
        Job("ls-check", "cli",
            ("ls-check", "--weights", "4,6", "--height-max", "5", "--Q", "25",
             "--residues", "{work}/omega.txt", *W1)),
        Job("qf-G", "cli",
            ("qf-G", "--D", "2", "--Q", "20000", "--density", "1/3", *W1)),
        Job("qf-batch", "qf-batch"),
    ),
}

# Jobs whose output depends on --seed: frozen for DEFAULT_SEED only.
SEEDED_JOBS = {"qf-batch"}

OMEGA_COVER = "two-torsion-g1"
OMEGA_P_MAX = 25
DEFAULT_SEED = 1

QF_BATCH_SIZE = 1800
QF_DS = (2, 3, 6, 7, 11, 19)
QF_WEIGHTS = ((1,), (1, 2), (2, 3))
QF_COORD_MAX = 10**6
QF_BATCH_FILE = "qf_batch.txt"


def qf_batch_lines(seed: int) -> list[str]:
    """Seeded qf inputs, one `D w0,w1 a0:b0,a1:b1` line per tuple; no
    coordinate is zero."""
    rng = random.Random(seed)
    lines = []
    for _ in range(QF_BATCH_SIZE):
        D = rng.choice(QF_DS)
        weights = rng.choice(QF_WEIGHTS)
        coords = []
        for _ in weights:
            a = b = 0
            while a == 0 and b == 0:
                a = rng.randint(-QF_COORD_MAX, QF_COORD_MAX)
                b = rng.randint(-QF_COORD_MAX, QF_COORD_MAX)
            coords.append(f"{a}:{b}")
        lines.append(f"{D} {','.join(map(str, weights))} {','.join(coords)}")
    return lines


def parse_qf_line(line: str) -> tuple[int, tuple[int, ...], list[tuple[int, int]]]:
    D, w, coords = line.split()
    pairs = [tuple(int(v) for v in c.split(":")) for c in coords.split(",")]
    return int(D), tuple(int(v) for v in w.split(",")), pairs
