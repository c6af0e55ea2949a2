"""Golden pin for the one remaining deprecation shim.

``DynamicMatcher`` still works but warns; its warning text is asserted
verbatim and the replacement it names must exist.  Every other old
spelling was removed outright and is pinned in ``test_removed_spellings``.
"""

import re

import pytest

from repro.dynamic import DynamicMatcher

DYNAMIC_MATCHER_WARNING = (
    "DynamicMatcher is deprecated; use repro.stream.MatchingService "
    "(or repro.run('stream', ...)), which batches and coalesces updates")


class TestWarningTextAndDelegation:
    def test_dynamic_matcher(self):
        with pytest.warns(DeprecationWarning,
                          match=re.escape(DYNAMIC_MATCHER_WARNING)):
            matcher = DynamicMatcher(k=2)
        # the replacement named by the warning exists and is importable
        from repro.stream import MatchingService
        assert matcher.k == 2 and MatchingService is not None
