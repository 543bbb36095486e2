"""The benchmark's traced run wraps functions by name; these tests fail as soon as a wrapped name moves.

The traced run only reports a lost probe as ``not instrumented (missing)``
after its ops have run. Importing its probe list here checks every site in
about a second.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import linedefects

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402  (lives in perfbench/, put on the path above)


def test_every_probe_target_exists():
    probes = layers.probes(linedefects)
    assert probes
    missing = [
        f"{getattr(probe.target, '__name__', probe.target)}.{probe.attribute}"
        for probe in probes
        if getattr(probe.target, probe.attribute, None) is None
    ]
    assert missing == []


def test_probe_readers_find_the_arguments_they_read():
    # layers._identified reads the config as the fourth argument, layers._explanation the vector as the second
    assert list(inspect.signature(linedefects.pipeline.identify_lines).parameters)[3] == "config"
    assert list(inspect.signature(linedefects.pipeline.explain).parameters)[1] == "x"
