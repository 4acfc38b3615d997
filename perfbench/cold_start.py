"""One cold set-up, timed from outside by run.py as setup_s.

    python3 perfbench/cold_start.py WORKLOAD SEED DIRECTORY

Starts a fresh interpreter, imports sensched.cli from the checkout's src/
(click, and every stdlib module sensched pulls in, load here too), draws
the workload's inputs from SEED and writes them as instance files into
DIRECTORY. It is the set-up a user's first command pays before any work.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sensched.cli  # noqa: E402,F401
import workloads  # noqa: E402


def main() -> None:
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.write_inputs(workloads.WORKLOADS[name](seed, HERE.parent), directory)


if __name__ == "__main__":
    main()
