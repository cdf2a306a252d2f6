"""Set up one workload the way ``pendavg zeros``/``verify`` do, then stop.

Usage: setup_probe.py CONFIG.ini

Imports the CLI, loads the config and builds the reduced parameters, the
spectrum, the monodromy check, the perturbation and the averaged system:
everything before the first annulus search.  Prints ``time.perf_counter()``
at that point; on Linux it reads the system-wide monotonic clock, so the
parent subtracts its own reading from before the spawn.
"""

from __future__ import annotations

import sys
import time


def main(argv) -> int:
    from pendavg import cli
    from pendavg.averaging import BifurcationSystem
    from pendavg.model import monodromy_lower_block, reduce_params, spectral_data

    config = cli.load_config(argv[0])
    reduced = reduce_params(config.phys)
    spectral = spectral_data(reduced)
    monodromy_lower_block(spectral, config.p, family=config.family)
    spec = cli.build_perturbation(config, spectral)
    BifurcationSystem(config.family, spec, reduced, spectral, config.convention)
    print(repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
