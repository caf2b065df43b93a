"""The framing that graph files and checkpoints share: a magic, the header's
length as a little-endian uint32, a JSON-object header, then the blocks.

The pins hold the bytes of one graph file and one checkpoint built from
fixed inputs, so a change to how they are written shows as a changed digest."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewgraph import training
from reviewgraph.autodiff import ParamStore
from reviewgraph.graph import (Dimension, Edge, Node, NodeType, RelationType, _graph_from_bytes,
                               assemble, graph_to_bytes, pack, skeleton, unpack)
from reviewgraph.model import ModelConfig, param_layout
from reviewgraph.training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint

#: Any JSON value: ``json.dumps`` escapes what is not ASCII, lone surrogates included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)
HEADERS = st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=4)
MAGICS = st.binary(min_size=1, max_size=8)


def fixed_graph():
    """The skeleton of a titled paper with two reviewer opinions and one author
    opinion, a disagreement and a clarification, and a non-ASCII text."""
    nodes, edges = skeleton("Graphs über alles")
    nodes += [Node(5, NodeType.REVIEWER_OPINION, "weak baselines", "reviewer_1",
                   Dimension.EXPERIMENTAL_COMPLETENESS),
              Node(6, NodeType.REVIEWER_OPINION, "strong baselines", "reviewer_2",
                   Dimension.EXPERIMENTAL_COMPLETENESS),
              Node(7, NodeType.AUTHOR_OPINION, "we added two", "author")]
    edges += [Edge(5, 2, RelationType.REVIEWED_BY), Edge(6, 2, RelationType.REVIEWED_BY),
              Edge(5, 6, RelationType.DISAGREE), Edge(5, 7, RelationType.CLARIFY)]
    return assemble("pin", nodes, edges, "accept")


def fixed_checkpoint():
    """A checkpoint whose parameters follow a formula, not a random generator."""
    config = ModelConfig(input_dim=4, hidden_dim=4, num_heads=2, num_layers=1, ffn_hidden=4)
    shapes = [(name, shape) for name, shape, _init in param_layout(config)]
    flat = np.arange(sum(int(np.prod(shape)) for _name, shape in shapes)) / 7.0 - 3.0
    return Checkpoint(1, config, TrainConfig(seed=3), 4, 0.625, ParamStore(shapes, flat))


def test_graph_file_bytes_are_pinned():
    data = graph_to_bytes(fixed_graph())
    assert len(data) == 727
    assert hashlib.sha256(data).hexdigest() == (
        "19015bf9e3574b57539a6a51bcf310fc9c90f396b8922456c226cded57c29c54")


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "pin.rvgc"
    save_checkpoint(fixed_checkpoint(), path)
    data = path.read_bytes()
    assert len(data) == 12615
    assert hashlib.sha256(data).hexdigest() == (
        "05f193c6cfb0f0675a55a554f3e37f1d6bf62348ae52bfb24d8365755f8cdfa2")
    save_checkpoint(load_checkpoint(path), tmp_path / "again.rvgc")
    assert (tmp_path / "again.rvgc").read_bytes() == data


@settings(max_examples=100, deadline=None)
@given(magic=MAGICS, header=HEADERS, blocks=st.lists(st.binary(max_size=16), max_size=3))
def test_packed_header_and_blocks_round_trip(magic, header, blocks):
    data = pack(magic, json.dumps(header).encode(), *blocks)
    got, start = unpack(data, magic)
    assert got == header
    assert data[start:] == b"".join(blocks)


@settings(max_examples=100, deadline=None)
@given(magic=MAGICS, header=HEADERS, block=st.binary(max_size=16))
def test_bytes_cut_before_the_blocks_raise_value_error(magic, header, block):
    """Where the blocks start is the header's to say; whether they are whole
    is the reader's, so a cut inside them leaves the header readable."""
    data = pack(magic, json.dumps(header).encode(), block)
    _got, start = unpack(data, magic)
    for cut in range(start):
        with pytest.raises(ValueError):
            unpack(data[:cut], magic)
    for cut in range(start, len(data)):
        assert unpack(data[:cut], magic) == (header, start)


@settings(max_examples=100, deadline=None)
@given(magic=MAGICS, value=JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
def test_header_that_is_no_json_object_raises_type_error(magic, value):
    with pytest.raises(TypeError, match="header is not a JSON object"):
        unpack(pack(magic, json.dumps(value).encode()), magic)


@settings(max_examples=200, deadline=None)
@given(magic=MAGICS, header=st.binary(max_size=24), block=st.binary(max_size=8))
def test_any_header_bytes_give_an_object_or_a_value_or_type_error(magic, header, block):
    try:
        got, start = unpack(pack(magic, header, block), magic)
    except (TypeError, ValueError):
        return
    assert isinstance(got, dict) and start == len(magic) + 4 + len(header)


@pytest.mark.parametrize("magic", [b"", b"RVGD", b"RVG"])
def test_other_magic_raises_value_error(magic):
    with pytest.raises(ValueError, match="bad magic header"):
        unpack(magic + pack(b"RVGC", b"{}")[4:], b"RVGC")


def test_every_cut_graph_file_raises_value_or_type_error():
    data = graph_to_bytes(fixed_graph())
    for cut in range(len(data)):
        with pytest.raises((TypeError, ValueError)):
            _graph_from_bytes(data[:cut])


def test_every_cut_checkpoint_is_refused(tmp_path):
    """The framing raises ``ValueError``, a payload cut short ``CorruptPayload``,
    and ``load_checkpoint`` puts the path first."""
    path = tmp_path / "pin.rvgc"
    save_checkpoint(fixed_checkpoint(), path)
    data = path.read_bytes()
    _manifest, start = unpack(data, b"RVGC")
    for cut in [*range(start + 1), *range(start + 1, len(data), 61)]:
        with pytest.raises((TypeError, ValueError, training.CorruptPayload)):
            training._checkpoint_from(data[:cut])
    path.write_bytes(data[:start - 1])
    with pytest.raises(training.CorruptPayload,
                       match=f"^{re.escape(str(path))}: ValueError: header cut short"):
        load_checkpoint(path)
