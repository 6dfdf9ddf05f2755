"""One cold sample of one benchmark stage, in a fresh interpreter.

    python3 vpbench/sample.py {report,fft} --workload NAME --seed N --sample I --trace 0|1

Starts the speed log before anything else, then imports ``stages``
(numpy and ``vpwave`` come with it), so the measured set-up covers those
imports.  ``vpwave`` must be importable: ``run.py`` puts the checkout's
``src`` on ``PYTHONPATH``.
"""

import sys
import time

import speed


def main() -> int:
    log = speed.SpeedLog()
    t_start = time.perf_counter()
    log.start()
    import stages

    return stages.main(sys.argv[1:], log, t_start)


if __name__ == "__main__":
    sys.exit(main())
