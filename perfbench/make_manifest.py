#!/usr/bin/env python3
"""Record the sha256 of every file the cli_outputs workload writes, as manifest.json.

    python3 perfbench/make_manifest.py

Run it only when a change to the CLI's output bytes is intended; the
benchmark fails every cli_outputs pass whose files differ from the manifest.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workloads.write_manifest()
