"""dump_json writes, in one walk, the bytes of the two-walk form it replaced."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st_

from vslab import reports as rp
from vslab.cli import main


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


def test_only_a_repeated_container_keeps_its_text():
    # the memo keeps a container's text from its second sight at one indent
    # on (the second sight writes its members again, and so sees them twice);
    # a container seen once keeps only its key
    shared, single = {"x": [1, 2]}, [3, 4]
    payload = {"a": shared, "b": shared, "c": shared, "d": single}
    memo = {}
    text = rp._write_json(payload, "\n", memo)
    assert text + "\n" == reference(payload)
    kept = {key for key, value in memo.items() if value is not None}
    assert kept == {(id(shared), "\n  "), (id(shared["x"]), "\n    ")}


def test_a_value_json_refuses_is_refused():
    for payload in ({"x": {1}}, [object()], {"y": np.int64(3)}):
        with pytest.raises(TypeError):
            reference(payload)
        with pytest.raises(TypeError):
            rp.dump_json(payload)


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
    real = rp.dump_json

    def recorded(obj):
        payloads.append(obj)
        return real(obj)

    monkeypatch.setattr(rp, "dump_json", recorded)
    out = tmp_path / "out.json"
    assert main([command, "--field", field, "--d", str(d), "--s", str(s),
                 "--a", "all", "--workers", "1", "--out", str(out)]) == 0
    (payload,) = payloads
    assert out.read_text() == reference(payload)
