"""Shared helpers of the benchmark: paths, statistics and the checkout check.

Nothing here imports the program under test, so ``run.py`` can refuse a
checkout without ``src/repro`` before it touches anything.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
from pathlib import Path

#: The checkout the benchmark runs in (``perfbench/`` lives at its root).
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Generated inputs and working files; listed in the root ``.gitignore``.
WORK = ROOT / ".perfbench-work"

#: The seed whose reference answers are committed beside the benchmark.
DEFAULT_SEED = 0
#: Every query asks for the top ten.
K = 10


def checkout_ok() -> bool:
    """Whether the program's sources are present in this checkout."""
    return (SOURCE / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SOURCE) if not previous else f"{SOURCE}{os.pathsep}{previous}"
    )
    # Observability stays off: end-to-end numbers are untraced.
    env.pop("REPRO_METRICS", None)
    return env


def fresh_dir(path: Path) -> Path:
    """Empty ``path`` (inside the checkout) and return it."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values: list[float]) -> float:
    return statistics.median(values)


class Metrics:
    """Named measurements with units and sample counts, in print order."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str, int | None]] = {}

    def put(
        self, name: str, value: float, unit: str, samples: int | None = None
    ) -> None:
        self.values[name] = (float(value), unit, samples)

    def timing(
        self, name: str, seconds: list[float], unit: str, scale: float
    ) -> None:
        """Median of ``seconds`` converted by ``scale``; 0 when absent."""
        value = median(seconds) * scale if seconds else 0.0
        self.put(name, value, unit, len(seconds))

    def report_lines(self, names: list[str]) -> list[str]:
        lines = []
        for name in names:
            value, unit, samples = self.values[name]
            note = ""
            if samples is not None:
                note = (
                    f"  n={samples}"
                    if samples
                    else "  n=0 (layer not exercised by this workload)"
                )
            lines.append(f"  {name:<48} {value:>14.6g} {unit}{note}")
        return lines

    def json_block(self, names: list[str]) -> dict:
        return {
            name: {"value": self.values[name][0], "unit": self.values[name][1]}
            for name in names
        }
