"""Set-up shared by every test module."""

import tempfile
from pathlib import Path

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # each module that needs Hypothesis skips itself
    pass
else:
    # Hypothesis caches facts about the code under test (at collection time,
    # and even with no example database); keep them out of the checkout.
    set_hypothesis_home_dir(Path(tempfile.gettempdir(), "chsim-hypothesis"))
    # Every property test runs whole engines, whose time varies with the
    # example, and draws afresh each session: no deadline and no example
    # database.  Each test's @settings sets only its number of examples.
    settings.register_profile("chsim", deadline=None, database=None)
    settings.load_profile("chsim")
