"""Seeded input generator for the benchmark workloads.

The world is the synthetic demo terrain: a road cross, a building block,
a tree stand and an open patch over grass, observed cell by cell with
classifier label noise. ``make_cloud(rng, 64)`` reproduces the demo cloud
of the test suite record for record (50,152 records; the self-test checks
this at seed 1010). Smaller grids downsample the same terrain.
"""

from __future__ import annotations

FREE, ROAD, GRASS, TREES, BUILDING = 0, 1, 2, 3, 4
NUM_CLASSES = 4
LAYERS = 8
BUILDING_HEIGHT = 6
NOISE = 0.12  # label noise of the test suite's demo cloud

CLOUD_HEADER = "x,y,z,class_id,confidence"

WEIGHTS = (
    "num_classes 4\n"
    "alpha 0.01\n"
    "class 1 relevant 4 road\n"
    "class 2 irrelevant 0.5 grass\n"
    "class 3 irrelevant 0.5 trees\n"
    "class 4 neutral building\n"
)
UNDESIRED = frozenset({GRASS, TREES})
RELEVANT = frozenset({ROAD})


def world_text(n: int, depth: int) -> str:
    """World config for an n-unit cube of unit cells (n == 2**depth)."""
    if n != 1 << depth:
        raise ValueError(f"grid {n} does not match depth {depth}")
    return (f"origin 0 0 0\nedge_length {n}\nmax_depth {depth}\n"
            f"branching 8\nnum_classes {NUM_CLASSES}\n")


def _demo_class(ix: int, iy: int) -> int:
    """Ground-truth class of a column of the 64x64 demo terrain."""
    if 30 <= ix < 34 or 30 <= iy < 34:
        return ROAD
    if 4 <= ix < 14 and 4 <= iy < 14:
        return BUILDING
    if 48 <= ix < 60 and 44 <= iy < 58:
        return TREES
    if 8 <= ix < 20 and 44 <= iy < 56:
        return FREE
    return GRASS


def true_class(ix: int, iy: int, n: int) -> int:
    return _demo_class(ix * 64 // n, iy * 64 // n)


def make_cloud(rng, n: int, jitter=None) -> list[tuple]:
    """(x, y, z, class_id, confidence) records observing every cell once over.

    Ground cells get 5 observations, building cells 3, free cells 1; each
    label is replaced by a uniform random class with probability ``NOISE``
    (half that for free space). Labels and confidences come from ``rng``,
    positions within their cells from ``jitter`` (default: ``rng``). With
    one generator the order of draws matches the test suite's demo
    generator, so n == 64 reproduces it exactly.
    """
    jitter = rng if jitter is None else jitter
    records = []
    for ix in range(n):
        for iy in range(n):
            true = true_class(ix, iy, n)
            height = BUILDING_HEIGHT if true == BUILDING else 0
            for iz in range(LAYERS):
                if iz == 0:
                    cls, nobs, p_noise = true, 5, NOISE
                elif iz < height:
                    cls, nobs, p_noise = BUILDING, 3, NOISE
                else:
                    cls, nobs, p_noise = FREE, 1, NOISE / 2
                for _ in range(nobs):
                    label = cls
                    if rng.random() < p_noise:
                        label = int(rng.integers(0, NUM_CLASSES + 1))
                    records.append((
                        ix + float(jitter.uniform(0.05, 0.95)),
                        iy + float(jitter.uniform(0.05, 0.95)),
                        iz + float(jitter.uniform(0.05, 0.95)),
                        label,
                        float(rng.uniform(0.6, 0.95))))
    return records


def cloud_text(records) -> str:
    lines = [CLOUD_HEADER]
    for x, y, z, cid, conf in records:
        lines.append(f"{x:.9g},{y:.9g},{z:.9g},{cid},{conf:.9g}")
    return "\n".join(lines) + "\n"


def parse_cloud(text: str) -> list[tuple]:
    """Records as the CLI reads them back from ``cloud_text`` output."""
    out = []
    for line in text.splitlines()[1:]:
        x, y, z, cid, conf = line.split(",")
        out.append((float(x), float(y), float(z), int(cid), float(conf)))
    return out
