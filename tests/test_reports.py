"""dump_json and write_json write, in one walk, the bytes of the two-walk
form they replaced."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st_

from vslab import reports as rp
from vslab.cli import main
from vslab.errors import InvalidParameter


def jsonable(obj):
    """The conversion dump_json did before encoding, kept as the reference."""
    if isinstance(obj, Fraction):
        return rp.frac_str(obj)
    if isinstance(obj, float):
        return rp.fmt_float(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def reference(obj):
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


class Int(int):
    pass


class Str(str):
    pass


TRICKY_TEXT = ['"', "\\", 'a"b\\c', "\x00\x1f\n\t\r\x7f", "é ü ∑ 𝔽_q", ""]
LEAVES = st_.one_of(
    st_.integers(),
    st_.integers(-(10**40), 10**40),
    st_.booleans(),
    st_.none(),
    st_.fractions(),
    st_.floats(),  # nan and both infinities included
    st_.floats().map(np.float64),
    st_.integers().map(Int),
    st_.text(),
    st_.sampled_from(TRICKY_TEXT),
    st_.text().map(Str),
)
# few distinct keys, so 1 and "1" often share a dict
KEYS = st_.one_of(
    st_.integers(-2, 2), st_.integers(-2, 2).map(str), st_.sampled_from(TRICKY_TEXT),
    st_.text(max_size=3),
)
PAYLOADS = st_.recursive(
    LEAVES,
    lambda inner: st_.one_of(
        st_.lists(inner, max_size=4),
        st_.lists(inner, max_size=4).map(tuple),
        st_.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=30,
)


@given(PAYLOADS)
@example({1: "int first", "1": "str first"})
@example({"1": "str first", 1: "int first"})
@example({"a": {}, "b": [], "c": (), "d": [{}], "e": {"f": []}})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e16, Fraction(-3, 1)])
@example({Fraction(1, 2): 0, 1.5: 1, (1, 2): 2, None: 3, True: 4})
def test_dump_json_writes_the_bytes_of_json_dumps(payload):
    assert rp.dump_json(payload) == reference(payload)


@given(PAYLOADS)
def test_a_shared_container_is_written_at_each_indent(part):
    payload = {"one": part, "two": part, "deeper": [part, {"x": part}], "p": [part]}
    assert rp.dump_json(payload) == reference(payload)


@given(PAYLOADS)
@example({"a": [], "b": [[1, {"c": 2.5}], [3]], "d": "x"})
def test_write_json_streams_the_bytes_of_dump_json(tmp_path_factory, part):
    # the file gets the walk's pieces as they come; nested and shared
    # containers break the text into many pieces
    payload = {"one": part, "two": [part, {"x": part}], "three": [[part], part]}
    path = tmp_path_factory.getbasetemp() / "streamed.json"
    rp.write_json(path, payload)
    assert path.read_text() == rp.dump_json(payload) == reference(payload)


def test_only_a_repeated_container_keeps_its_text():
    # the memo keeps a container's text from its second sight at one indent
    # on (the second sight writes its members again, and so sees them twice);
    # a container seen once keeps only its key
    shared, single = {"x": [1, 2]}, [3, 4]
    payload = {"a": shared, "b": shared, "c": shared, "d": single}
    memo = {}
    text = "".join(rp._json_pieces(payload, "\n", memo))
    assert text + "\n" == reference(payload)
    kept = {key for key, value in memo.items() if value is not None}
    assert kept == {(id(shared), "\n  "), (id(shared["x"]), "\n    ")}


def test_a_value_json_refuses_is_refused(tmp_path):
    for payload in ({"x": {1}}, [object()], {"y": np.int64(3)}):
        with pytest.raises(TypeError):
            reference(payload)
        with pytest.raises(TypeError):
            rp.dump_json(payload)
    # the file holds the text written before the refused value
    path = tmp_path / "partial.json"
    with pytest.raises(TypeError):
        rp.write_json(path, {"a": [1], "b": {2}})
    assert path.read_text() == '{\n  "a": [\n    1\n  ],\n  "b": '


MOMENTS_ALL_A = [
    ("second-moment", "11^1", 6, 1),
    ("mean", "5^2", 5, 1),
    ("second-moment", "3^3", 5, 2),
    ("mean", "7^1", 5, 1),
    ("mean", "11^1", 5, 0),
    ("second-moment", "7^1", 6, 2),
]


@pytest.mark.parametrize("command, field, d, s", MOMENTS_ALL_A)
def test_moment_payloads_keep_their_bytes(command, field, d, s, tmp_path, monkeypatch):
    payloads = []
    real = rp.write_json

    def recorded(path, obj):
        payloads.append(obj)
        return real(path, obj)

    monkeypatch.setattr(rp, "write_json", recorded)
    out = tmp_path / "out.json"
    assert main([command, "--field", field, "--d", str(d), "--s", str(s),
                 "--a", "all", "--workers", "1", "--out", str(out)]) == 0
    (payload,) = payloads
    assert out.read_text() == reference(payload)


def test_writing_a_payload_holds_no_whole_text(tmp_path, monkeypatch):
    # the 729 reports of second-moment on 3^3 d5 s2 are 802,202 bytes of
    # JSON; writing them holds only the memo of the shared tables
    # (0.20 MiB), where the text joined first took 1.54 MiB
    payloads = []
    monkeypatch.setattr(rp, "write_json", lambda path, obj: payloads.append(obj))
    assert main(["second-moment", "--field", "3^3", "--d", "5", "--s", "2",
                 "--a", "all", "--workers", "1", "--out", str(tmp_path / "x")]) == 0
    monkeypatch.undo()
    (payload,) = payloads
    out = tmp_path / "out.json"
    rp.write_json(out, payload)
    tracemalloc.start()
    try:
        rp.write_json(out, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == 802_202
    assert peak <= 0.25 * 2**20


def test_an_unwritable_path_is_a_usage_error(tmp_path):
    # a directory passes the CLI's check of the parent directory; opening
    # it fails in the writer, which refuses it as a usage error (exit 2)
    with pytest.raises(InvalidParameter, match="cannot write"):
        rp.write_json(tmp_path, {"a": [1]})
    with pytest.raises(InvalidParameter, match="cannot write"):
        rp.write_csv(tmp_path, ["a"], [[1]])
    assert main(["mean", "--field", "5^1", "--d", "4", "--s", "1", "--a", "1",
                 "--workers", "1", "--out", str(tmp_path)]) == 2
