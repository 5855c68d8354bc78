"""Set-up probe: run in a fresh interpreter by ``run.py``.

Imports ``ringfield`` from the source tree given as the first argument,
builds the config, lattice, initial state and kernel table described by
the JSON object in the second argument, and prints ``time.monotonic()``.
The parent takes the clock just before it starts this process, so the
difference is the set-up time from interpreter start (CLOCK_MONOTONIC is
shared by all processes on the machine).
"""

import json
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import ringfield

    config = ringfield.RunConfig(**json.loads(sys.argv[2]))
    lattice = config.lattice()
    ringfield.build_state(lattice, config.state_spec())
    config.evolution()
    build_table = getattr(ringfield, "build_kernel_table", None)
    if build_table is not None and lattice.parity == "odd":
        build_table(lattice)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
