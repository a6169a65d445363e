"""Write perfbench/expected.json: the exit code and stdout digest of every
deterministic CLI job the benchmark runs, at both scales.

    python3 perfbench/record_expected.py

Run it only at a commit whose CLI output is known to be right; the benchmark
counts any later difference as a failure.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jobs  # noqa: E402


def main() -> None:
    expected = {}
    for scale in jobs.SCALES:
        for argv in jobs.deterministic_argvs(scale):
            expected[" ".join(argv)] = jobs.digest(*jobs.run_cli(argv))
    jobs.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
