"""Config boundary, fuzzed: any JSON config gives a valid run or one
clean error line, never a traceback and never a non-finite export."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from chsim.cli import main  # noqa: E402
from chsim.config import ArenaConfig, SimConfig, config_to_dict  # noqa: E402

# Hypothesis caches facts about the code under test (at collection time,
# and even with no example database); keep them out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir(), "chsim-hypothesis"))

BASE = config_to_dict(SimConfig(arena=ArenaConfig(node_count=20), cluster_count=2, max_frames=5))


def _leaves(tree, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 50),
    st.floats(),  # nan and +-inf included
    st.sampled_from([1e300, -1e300]),
    st.text(max_size=5),
    st.lists(st.floats(), max_size=3),
)


def _reject_constant(token):
    raise ValueError(f"export holds {token}")


@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(list(_leaves(BASE))), VALUES, min_size=1, max_size=3))
def test_any_config_runs_or_fails_with_one_error_line(changes):
    payload = copy.deepcopy(BASE)
    for path, value in changes.items():
        section = payload
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "config.json"), Path(tmp, "out.json")
        config.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config), "--format", "json", "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            json.loads(out.read_text(), parse_constant=_reject_constant)
