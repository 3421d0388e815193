#!/usr/bin/env python3
"""Peak resident memory of each CLI command that writes full fields, and of
reading one back.

    PYTHONPATH=src python scripts/peak_memory.py --grid-n 2000 --grid-m 2000

Runs `solve`, `forward-p`, `density` and `reproduce-figures` one after the
other at the given grid (other inputs at their defaults), each in a fresh
interpreter that runs `matchentropy.cli.main` into a temporary directory and
then reads its own peak resident set size, getrusage(RUSAGE_SELF).ru_maxrss
(kB on Linux).  One line per command gives that peak in MB.  A last line,
`read-back`, is a fresh interpreter that runs `solve` and then reads its
`solve_surface.csv` with `field_from_csv`, as the `cli_outputs` benchmark
does: it reads above the `solve` line only if the reader holds more than
`solve` did.

Only the command's own process is counted.  The file-writing workers a
command starts are separate processes, whose memory is not in RUSAGE_SELF.
The imports (numpy, and scipy's LAPACK on the first solve) are in it, so a
command's own data is its peak less that floor.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("solve", "forward-p", "density", "reproduce-figures", "read-back")
SRC = Path(__file__).resolve().parent.parent / "src"
# the child's last line of standard output is its exit code and peak in kB
# (read-back: solve, then read its surface file back)
CHILD = ("import os, resource, sys\n"
         "from matchentropy.cli import main\n"
         "from matchentropy.grid import field_from_csv\n"
         "command, *flags = sys.argv[1:]\n"
         "code = main(['solve' if command == 'read-back' else command, *flags])\n"
         "if command == 'read-back' and code == 0:\n"
         "    field_from_csv(os.path.join(flags[-1], 'solve_surface.csv'))\n"
         "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")


def peak_kb(command: str, grid_n: int, grid_m: int) -> int:
    """The peak resident set size, in kB, of one fresh process running `command`
    (or, for read-back, solve and the read of its surface)."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable, "-c", CHILD, command, "--grid-n", str(grid_n),
                               "--grid-m", str(grid_m), "--output", out],
                              env=env, capture_output=True, text=True, check=True)
    code, kb = done.stdout.split()[-2:]
    if code != "0":
        sys.exit(f"{command} exited with {code}: {done.stderr.strip()}")
    return int(kb)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-n", type=int, default=1000)
    parser.add_argument("--grid-m", type=int, default=1000)
    args = parser.parse_args(argv)
    for command in COMMANDS:
        mb = peak_kb(command, args.grid_n, args.grid_m) / 1024
        print(f"{command:<18} {mb:8.1f} MB")


if __name__ == "__main__":
    main()
