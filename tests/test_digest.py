"""The CLI's output, byte for byte, against the committed digest (digest.py)."""

import pytest

import digest


def test_cli_output_matches_the_committed_digest():
    # pytest.fail, not assert: the check must hold under python -O too
    bad = digest.differences(digest.compute(), digest.load_expected())
    if bad:
        pytest.fail(
            "CLI output changed; re-record with tests/digest.py --record only if intended:\n"
            + "\n".join(bad)
        )
