import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pipeline_utils import forward_only
from reviewgraph.extraction import (
    DimensionAssignment,
    MalformedTriple,
    MissingArrayKey,
    MissingDimensionAssignment,
    NotJson,
    OpinionTriplet,
    RelationGroup,
    TooManyMalformed,
    TripleBatch,
    UnknownCategory,
    UnknownRelationLabel,
    WrongGroupSpeaker,
    batch_to_dict,
    build_graph,
    canonical_relation,
    normalize_text,
    parse_dimension_reply,
    parse_triple_batch,
    parse_triple_string,
    reviewer_opinion_keys,
)
from reviewgraph.graph import Dimension, RelationType, edge_counts_by_group, validate_graph

DATA = Path(__file__).parent / "data"


def load_sample(name):
    return (DATA / f"triples_{name}_sample.json").read_text()


# -- triple string parsing -------------------------------------------------


def test_parse_basic_reviewer_author_triple():
    t = parse_triple_string(
        "(Reviewer 1: 'The proofs are hard to check.', "
        "Author: 'We added a proof sketch.', Clarify)",
        RelationGroup.REVIEWER_AUTHOR,
    )
    assert t.speaker_a == "reviewer_1"
    assert t.speaker_b == "author"
    assert t.text_a == "The proofs are hard to check."
    assert t.relation_label == "Clarify"


def test_parse_handles_curly_quotes_and_inner_commas():
    t = parse_triple_string(
        "(Reviewer 2: ‘The idea, while neat, is incremental.’, "
        "Reviewer 3: “I disagree, it is novel.”, Disagree)",
        RelationGroup.INTER_REVIEWER,
    )
    assert t.text_a == "The idea, while neat, is incremental."
    assert t.text_b == "I disagree, it is novel."


def test_parse_preserves_inner_apostrophes():
    t = parse_triple_string(
        "(Reviewer 1: 'The paper's scope is narrow.', Author: 'It's deliberate.', Reject)",
        RelationGroup.REVIEWER_AUTHOR,
    )
    assert t.text_a == "The paper's scope is narrow."
    assert t.text_b == "It's deliberate."


def test_parse_rejects_missing_speaker_tag():
    with pytest.raises(MalformedTriple):
        parse_triple_string("('no speakers here', Accept)", RelationGroup.REVIEWER_AUTHOR)


def test_parse_rejects_missing_label():
    with pytest.raises(MalformedTriple):
        parse_triple_string(
            "(Reviewer 1: 'a', Author: 'b')", RelationGroup.REVIEWER_AUTHOR
        )


def test_parse_rejects_wrong_group_speakers():
    with pytest.raises(WrongGroupSpeaker):
        parse_triple_string(
            "(Reviewer 1: 'a', Reviewer 2: 'b', Agree)", RelationGroup.REVIEWER_AUTHOR
        )
    with pytest.raises(WrongGroupSpeaker):
        parse_triple_string(
            "(Reviewer 1: 'a', Author: 'b', Accept)", RelationGroup.INTER_REVIEWER
        )


def test_canonical_relation_is_case_insensitive_per_group():
    assert canonical_relation("ACCEPT", RelationGroup.REVIEWER_AUTHOR) == RelationType.ACCEPT
    assert canonical_relation("agree", RelationGroup.INTER_REVIEWER) == RelationType.AGREE
    with pytest.raises(UnknownRelationLabel):
        canonical_relation("Agree", RelationGroup.REVIEWER_AUTHOR)
    with pytest.raises(UnknownRelationLabel):
        canonical_relation("Extend", RelationGroup.INTER_REVIEWER)


@given(st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=30))
def test_parser_never_crashes_on_junk(junk):
    try:
        parse_triple_string(junk, RelationGroup.REVIEWER_AUTHOR)
    except (MalformedTriple, WrongGroupSpeaker):
        pass


# -- batch parsing ---------------------------------------------------------


def test_parse_batch_counts_rejected_sample():
    batch = parse_triple_batch(load_sample("rejected"), "rejected")
    assert len(batch.reviewer_author) == 7
    assert len(batch.inter_reviewer) == 8
    assert not batch.malformed


def test_parse_batch_counts_accepted_sample():
    batch = parse_triple_batch(load_sample("accepted"), "accepted")
    assert len(batch.reviewer_author) == 7
    assert len(batch.inter_reviewer) == 7
    assert not batch.malformed


def test_parse_batch_skips_and_reports_malformed():
    doc = json.loads(load_sample("accepted"))
    doc["Reviewer_Author_Relations"].append("broken entry")
    batch = parse_triple_batch(json.dumps(doc), "x")
    assert len(batch.reviewer_author) == 7
    assert len(batch.malformed) == 1
    assert batch.malformed[0][0] == "reviewer_author"


def test_parse_batch_fails_when_mostly_malformed():
    doc = {
        "Reviewer_Author_Relations": ["junk", "more junk", 3],
        "Inter_Reviewer_Relations": [
            "(Reviewer 1: 'a', Reviewer 2: 'b', Agree)"
        ],
    }
    with pytest.raises(TooManyMalformed):
        parse_triple_batch(json.dumps(doc), "x")


def test_parse_batch_requires_both_arrays():
    with pytest.raises(MissingArrayKey):
        parse_triple_batch('{"Reviewer_Author_Relations": []}', "x")


def test_parse_batch_rejects_non_json():
    with pytest.raises(NotJson):
        parse_triple_batch("not json at all", "x")


@pytest.mark.parametrize("parse", [lambda data: parse_triple_batch(data, "x"),
                                   parse_dimension_reply], ids=["batch", "dimension-reply"])
def test_json_nested_too_deeply_is_not_json(parse):
    with pytest.raises(NotJson, match="not valid JSON"):
        parse("[" * 200_000)


def test_batch_round_trip_through_dict():
    batch = parse_triple_batch(load_sample("rejected"), "rejected")
    again = parse_triple_batch(json.dumps(batch_to_dict(batch)), "rejected")
    assert again.reviewer_author == batch.reviewer_author
    assert again.inter_reviewer == batch.inter_reviewer


def test_strict_parse_names_the_first_malformed_element():
    doc = json.loads(load_sample("accepted"))
    doc["Inter_Reviewer_Relations"][2] = 5
    doc["Inter_Reviewer_Relations"][4] = "garbage"
    data = json.dumps(doc)
    assert len(parse_triple_batch(data, "x").malformed) == 2
    with pytest.raises(MalformedTriple, match=r"^Inter_Reviewer_Relations\[2\]: array element "
                                              r"is not a string: 5$"):
        parse_triple_batch(data, "x", strict=True)


_QUOTES = "'\"`\u2018\u2019\u201c\u201d"
#: Opinion texts of what a parser that anchors on speaker tags can trip on:
#: tags, quotes, commas, brackets and whitespace of several kinds.
_TEXTS = st.lists(st.sampled_from(["Reviewer 1:", "Author:", "Reviewer", "1", ":", ",", " ",
                                   "\t", "\n", "\u3000", "it's", "a", "(", ")", *_QUOTES]),
                  max_size=8).map("".join) | st.text(max_size=12)
_ELEMENTS = st.builds(
    lambda a, b, qa, qb, ta, tb, label: f"({a}: {qa}{ta}{qa}, {b}: {qb}{tb}{qb}, {label})",
    *[st.sampled_from(["Reviewer 1", "Reviewer 2", "Reviewer3", "Author"])] * 2,
    *[st.sampled_from(["", *_QUOTES])] * 2, _TEXTS, _TEXTS,
    st.sampled_from(["Agree", "disagree", "x1"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ELEMENTS, max_size=4), st.lists(_ELEMENTS, max_size=4))
@example(["(Reviewer 1: '\n'x', Author: 'y \u3000'', Agree)"], [])  # quotes within whitespace
def test_a_written_batch_reads_back_strictly_as_it_was_parsed(ra, ir):
    """Whatever a reply parses to, ``batch_to_dict`` writes it so that it
    parses strictly, no element malformed, to the same triples."""
    try:
        batch = parse_triple_batch(json.dumps({"Reviewer_Author_Relations": ra,
                                               "Inter_Reviewer_Relations": ir}), "x")
    except TooManyMalformed:
        return
    again = parse_triple_batch(json.dumps(batch_to_dict(batch)), "x", strict=True)
    assert again.triplets == batch.triplets


# -- dimension classification replies -------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Methodological Novelty", Dimension.METHODOLOGICAL_NOVELTY),
        ("experimental_completeness", Dimension.EXPERIMENTAL_COMPLETENESS),
        ("motivation-clarity", Dimension.MOTIVATION_CLARITY),
        ("WRITING FLUENCY", Dimension.WRITING_FLUENCY),
    ],
)
def test_parse_dimension_reply_normalizes(raw, expected):
    assert parse_dimension_reply(json.dumps({"category": raw})) == expected


def test_parse_dimension_reply_unknown_category():
    with pytest.raises(UnknownCategory):
        parse_dimension_reply('{"category": "vibes"}')


def test_parse_dimension_reply_requires_object():
    with pytest.raises(NotJson):
        parse_dimension_reply('["Methodological Novelty"]')


# -- graph building --------------------------------------------------------


def assign_all(batch, dimension=Dimension.METHODOLOGICAL_NOVELTY):
    return [
        DimensionAssignment(speaker=s, text=t, dimension=dimension)
        for s, t in reviewer_opinion_keys(batch)
    ]


def test_build_graph_from_rejected_sample():
    batch = parse_triple_batch(load_sample("rejected"), "rejected")
    g = build_graph("Potential Transformation Analysis", batch, assign_all(batch),
                    label="reject")
    report = validate_graph(g)
    assert report.ok, report.violations
    counts = edge_counts_by_group(g)
    assert counts["reviewer_author"] == 7
    assert counts["inter_reviewer"] == 8


def test_build_graph_dedups_repeated_opinions():
    batch = parse_triple_batch(load_sample("rejected"), "rejected")
    g = build_graph("T", batch, assign_all(batch))
    texts = [(n.speaker, n.text) for n in g.nodes]
    assert len(texts) == len(set(texts))
    # reviewer 3 repeats one sentence with two different author replies
    r3 = [n for n in g.nodes if n.speaker == "reviewer_3"]
    assert len({n.text for n in r3}) == len(r3)


def test_build_graph_requires_dimensions_for_all_reviewer_opinions():
    batch = parse_triple_batch(load_sample("accepted"), "accepted")
    dims = assign_all(batch)[:-1]
    with pytest.raises(MissingDimensionAssignment):
        build_graph("T", batch, dims)


def test_build_graph_inverse_edges_mirror_forward():
    batch = parse_triple_batch(load_sample("accepted"), "accepted")
    g = build_graph("T", batch, assign_all(batch))
    fwd = {(e.src, e.dst, e.relation) for e in g.edges if not e.inverse}
    inv = {(e.dst, e.src, e.relation) for e in g.edges if e.inverse}
    assert fwd == inv


def test_build_graph_without_inverse_edges():
    """The forward edges come first, and alone they are a valid graph."""
    batch = parse_triple_batch(load_sample("accepted"), "accepted")
    g = build_graph("T", batch, assign_all(batch))
    forward = forward_only(g)
    assert g.edges[:len(forward.edges)] == forward.edges
    assert not any(e.inverse for e in forward.edges) and validate_graph(forward).ok


def test_normalize_text_collapses_whitespace():
    assert normalize_text("  a\n b\tc ") == "a b c"


def test_reviewer_opinion_keys_first_appearance_order():
    batch = TripleBatch(
        graph_id="x",
        reviewer_author=(
            OpinionTriplet("reviewer_2", "b", "author", "r", "Accept",
                           RelationGroup.REVIEWER_AUTHOR),
        ),
        inter_reviewer=(
            OpinionTriplet("reviewer_1", "a", "reviewer_2", "b", "Agree",
                           RelationGroup.INTER_REVIEWER),
        ),
    )
    assert reviewer_opinion_keys(batch) == [
        ("reviewer_2", "b"), ("reviewer_1", "a")
    ]
