"""A summary's JSON, alone or as a piece of a list, encoded by orjson,
gives the bytes of ``json.dumps`` with sorted keys and no spaces, the
encoding it replaced; an int beyond orjson's 64-bit range, or a policy
or scenario with a character that orjson writes raw, goes through
``json.dumps`` itself."""

import io
import json

import orjson
import pytest

from chsim.cli import main
from chsim.metrics import RunSummary, _summary_piece, export

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def dumps(summary: RunSummary) -> bytes:
    return json.dumps(vars(summary), sort_keys=True, separators=(",", ":")).encode()


COUNTS = st.integers(0, 2**63 - 1)
summaries = st.builds(
    RunSummary,
    policy=st.text(),
    scenario=st.text(),
    seed=st.integers(0, 2**70),
    nodes=st.integers(1, 10**6),
    total_packets=COUNTS,
    first_death_frame=st.none() | COUNTS,
    all_dead_frame=st.none() | COUNTS,
    curve=st.lists(st.tuples(COUNTS, COUNTS, COUNTS, COUNTS), max_size=20).map(tuple),
)


@settings(max_examples=200)
@given(summaries)
# no death, an empty curve, and a seed one past orjson's range
@example(RunSummary("dchne", "scenario1", 0, 10, 0, None, None, ()))
@example(RunSummary("rrch", "scenario2", 2**64, 10, 3, 1, 2, ((0, 10, 1, 2), (1, 9, 3, 2))))
# characters that orjson writes raw and json.dumps escapes
@example(RunSummary("dchn\u00e9", "scenario1", 0, 10, 0, None, None, ()))
@example(RunSummary("\x7f", "scenario1", 0, 10, 0, None, None, ()))
@example(RunSummary("dchne", "\u2028", 0, 10, 0, None, None, ()))
def test_summary_piece_is_json_dumps(summary):
    assert _summary_piece(summary, "json") == dumps(summary)
    sink = io.BytesIO()
    export(summary, "json", sink)
    assert sink.getvalue() == dumps(summary) + b"\n"


def test_seed_past_64_bits_takes_the_fallback():
    with pytest.raises(orjson.JSONEncodeError):
        orjson.dumps(2**64)
    summary = RunSummary("leach", "scenario1", 2**64, 2, 0, None, None, ())
    assert _summary_piece(summary, "json") == dumps(summary)


def test_sweep_with_seed_past_64_bits_gives_json_dumps_bytes(tmp_path):
    out = tmp_path / "sweep.json"
    seed = 2**64
    argv = ["sweep", "--nodes", "10", "--frames", "100", "--seeds", f"{seed}..{seed}",
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    data = out.read_bytes()
    [fields] = json.loads(data)
    assert fields["seed"] == seed
    assert data == (json.dumps([fields], sort_keys=True, separators=(",", ":")) + "\n").encode()
