"""The outputs of a few small runs match the sha256 digests pinned in
tests/golden.json, byte for byte, at --workers 1 and 4.

The digests are kept per numpy, scipy and OpenBLAS build, since another
build may round differently; on a build with no entry these tests skip.
``python tests/update_golden.py`` writes the entry for this build and says
which digests changed: a change to the program's arithmetic must name every
file it changes.
"""

import pytest

from update_golden import SWEEPS, demo_digests, fingerprint, load, sweep_digests

FINGERPRINT = fingerprint()
ENTRY = load().get(FINGERPRINT)

pytestmark = pytest.mark.skipif(
    ENTRY is None, reason=f"tests/golden.json has no digests for this build ({FINGERPRINT}); "
                          "python tests/update_golden.py writes them")


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_outputs_match_golden(name, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = sweep_digests(name, workers)
    want = {key: digest for key, digest in ENTRY.items() if key.startswith(f"{name}/")}
    assert got == want


def test_demo_stdout_matches_golden(tmp_path):
    want = {key: digest for key, digest in ENTRY.items() if key.startswith("demo/")}
    assert demo_digests(tmp_path) == want
