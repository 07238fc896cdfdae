"""SHA-256 of every CLI table at quick sizes: all subcommands and the
fig1-fig9 presets.

    python3 bench/golden.py > hashes-a.txt
    git checkout <other>; python3 bench/golden.py > hashes-b.txt
    diff hashes-a.txt hashes-b.txt

Run from the root of a source tree.  The hashes are made anew at every
run and no copy is kept, so any two commits can be compared.  A refactor
should leave every line unchanged.  Exit code 1 if a command fails.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from teardrop import cli  # noqa: E402

CASES = {
    "spectrum": ["spectrum", "--n", "50", "--epsilon", "0.5", "--v", "1"],
    "kx-spectrum": ["kx-spectrum", "--n", "50"],
    "sweep-spectrum": ["sweep-spectrum", "--n", "10", "--epsilon-range=-4:4:9"],
    "quantize": ["quantize", "--n", "20", "--epsilon", "1", "--v", "1"],
    "dos": ["dos", "--n", "1000", "--epsilon", "1", "--v", "1", "--samples", "50"],
    "period": ["period", "--n", "10", "--epsilon", "2", "--v", "1", "--energy", "-0.5"],
    "fixed-points": ["fixed-points", "--n", "10", "--epsilon", "1.2", "--v", "1"],
    "mf-trajectory": ["mf-trajectory", "--n", "10", "--epsilon", "1",
                      "--init", "ground-kx", "--t-max", "5", "--samples", "101"],
    "mp-trajectory": ["mp-trajectory", "--n", "100", "--epsilon", "1",
                      "--init", "ground-kx", "--t-max", "5", "--samples", "51"],
    "wkb-state": ["wkb-state", "--n", "40", "--epsilon", "0.5", "--v", "1",
                  "--level", "3"],
    "coherent-surface": ["coherent-surface", "--n", "20", "--samples", "11"],
    "compare": ["compare", "--n", "20", "--v", "1", "--epsilon-range=-4:4:9"],
    "fig1": ["figure", "--id", "fig1", "--n", "20"],
    "fig2": ["figure", "--id", "fig2", "--epsilon-range=-4:4:9"],
    "fig3": ["figure", "--id", "fig3", "--t-max", "5", "--samples", "51"],
    "fig4": ["figure", "--id", "fig4", "--t-max", "2", "--samples", "21"],
    "fig5": ["figure", "--id", "fig5", "--samples", "11"],
    "fig6": ["figure", "--id", "fig6", "--samples", "51"],
    "fig7": ["figure", "--id", "fig7", "--epsilon-range=-4:4:9"],
    "fig8": ["figure", "--id", "fig8", "--n", "400"],
    "fig9": ["figure", "--id", "fig9", "--n", "40"],
}


def main():
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            path = Path(tmp) / f"{name}.csv"
            if cli.main([*argv, "--out", str(path)]) != 0:
                print(f"FAILED  {name}  {' '.join(argv)}")
                status = 1
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {name}  {' '.join(argv)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
