"""The benchmark's workloads and the seeded generator of their CLI arguments.

Every workload is closed-loop: one scenario runs at a time, back to back.
The seed perturbs only ``t_max`` (and, for ``thermal_grid``,
``mean_photon``); grid size, ``field_dim`` and ``layers`` are fixed, so the
amount of work does not depend on the seed. The program under test sees
only the resulting ``jcnc`` command-line arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Grid used by the set-up measurement: enough to import, configure, build
# the initial state and fill the lazily cached unitaries, and no more.
SETUP_POINTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    case: str
    field_dim: int
    layers: int
    n_points: int
    mean_photon_range: tuple[float, float] | None = None

    def cli_args(self, seed: int, output_prefix: str, n_points: int | None = None) -> list[str]:
        """``jcnc`` arguments for this workload; the same seed gives the same list."""
        rng = random.Random(f"{self.name}/{seed}")
        t_max = rng.uniform(TWO_PI, 1.05 * TWO_PI)
        args = [
            "--case", self.case,
            "--field-dim", str(self.field_dim),
            "--layers", str(self.layers),
            "--n-points", str(self.n_points if n_points is None else n_points),
            "--t-max", repr(t_max),
        ]
        if self.mean_photon_range is not None:
            args += ["--mean-photon", repr(rng.uniform(*self.mean_photon_range))]
        return args + ["--oracle-compare", "--output-prefix", output_prefix]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cascade_deep",
            why=(
                "case A at 6 layers: 63 tiny 2x2/4x4 eigensolves per subsystem and time, "
                "so interpreter and numpy dispatch dominate"
            ),
            case="A",
            field_dim=2,
            layers=6,
            n_points=401,
        ),
        Workload(
            name="thermal_grid",
            why=(
                "case C on 8001 points: many per-point evolve/reduce calls, "
                "oracle re-evolution and the largest CSV write"
            ),
            case="C",
            field_dim=3,
            layers=1,
            n_points=8001,
            mean_photon_range=(0.005, 0.05),
        ),
    )
}
