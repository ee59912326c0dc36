"""Make ``import rpdaglearn`` load the sources of this checkout.

The benchmark measures the program next to it, never an installed copy,
and refuses to run where the sources are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source():
    if not (SRC / "rpdaglearn" / "__init__.py").is_file():
        raise SystemExit(f"error: no rpdaglearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rpdaglearn
    if Path(rpdaglearn.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: rpdaglearn imported from "
                         f"{rpdaglearn.__file__}, not from {SRC}")
