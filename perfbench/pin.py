"""Re-pin the default-seed fingerprints in ``fingerprints.json``.

    python3 perfbench/pin.py [workload ...]

Only for a change that is *meant* to alter simulated behaviour: a
change that only makes the simulator faster must reproduce the pinned
fingerprints exactly, so re-pinning would hide the regression the
fingerprint exists to catch.
"""

from __future__ import annotations

import json
import sys

from run import FINGERPRINTS, _canonical, _import_program


def main(names: list[str]) -> None:
    _import_program()
    from perfbench.layers import NullRecorder
    from perfbench.workloads import WORKLOADS

    with open(FINGERPRINTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        inputs = wl.build(wl.default_seed)
        pinned[name] = _canonical(wl.fingerprint(wl.run(inputs, NullRecorder())))
        print(f"{name}: {pinned[name]}")
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
