"""Set-up probe: only the preparation an htasim command does before its
first scenario, then exit.  The benchmark times this child as setup_s.

Usage: python3 bench/setup_probe.py [--config FILE]   (src on PYTHONPATH)
"""

import argparse

import htasim.cli  # noqa: F401  (the import cost is part of set-up)
from htasim.config import default_config, load_config
from htasim.geometry import build_layout
from htasim.unitcell import builtin_curve_library

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--config")
args = parser.parse_args()
cfg = default_config() if args.config is None else load_config(args.config)
builtin_curve_library()
build_layout(cfg.layout)
