import pytest
from hypothesis import given, strategies as st

from chorrev.model import (
    And,
    Channel,
    Choice,
    ChoiceBranch,
    CountAtom,
    GFalse,
    GTrue,
    Interaction,
    Loop,
    MemberAtom,
    Not,
    Or,
    Par,
    Seq,
    control_points,
    desugar,
    guard_text,
    participants,
    pretty,
    subterms,
    validate,
)
from chorrev.order import UndefinedSemantics, semantics
from chorrev.parse import ParseError, parse_choreography, parse_guard
from chorrev.runtime import PENDING, eval_guard

from conftest import build
from test_order_oracle import shapes


def cps_by_kind(g):
    return {cp: type(node).__name__ for cp, node in control_points(g)}


def test_travel_control_points_frozen(travel_chor):
    # the reference fixture must always number the same way
    kinds = cps_by_kind(travel_chor)
    assert kinds == {
        1: "Loop",
        2: "Choice",
        3: "Par",
        4: "Interaction",
        5: "Interaction",
        6: "Interaction",
        7: "Interaction",
        8: "Interaction",
        9: "Interaction",
        10: "Interaction",
    }
    by_cp = dict(control_points(travel_chor))
    assert by_cp[4].message == "flight"
    assert by_cp[5].message == "flightPrice"
    assert by_cp[6].message == "car"
    assert by_cp[7].message == "carPrice"
    assert by_cp[8].message == "dest"
    assert by_cp[9].message == "fullPrice"
    assert by_cp[10].message == "upd"
    assert by_cp[1].controller == "T"
    assert participants(travel_chor) == {"B", "D", "T"}


def test_auto_numbering_is_preorder():
    g = parse_choreography("A -> B : x ; par { B -> C : y | B -> D : z }")
    kinds = cps_by_kind(g)
    assert kinds == {1: "Interaction", 2: "Par", 3: "Interaction", 4: "Interaction"}


def test_pretty_round_trip(travel_chor):
    assert parse_choreography(pretty(travel_chor)) == travel_chor


def test_pretty_round_trip_small():
    choice = """
    choice @ A {
      { A -> B : m ; B -> A : ack } unless count(m, A->B) >= 2
      + { A -> B : quit } unless ff
    }
    """
    right_nested = "A -> B : x ; (B -> C : y ; A -> C : z)"
    for src in (choice, right_nested):
        g = parse_choreography(src)
        assert parse_choreography(pretty(g)) == g


def test_parentheses_keep_a_chain_apart():
    x = Interaction("A", "B", "x", 1)
    y = Interaction("B", "C", "y", 2)
    z = Interaction("A", "C", "z", 3)
    assert parse_choreography("A -> B : x ; B -> C : y ; A -> C : z") == Seq((x, y, z))
    assert parse_choreography("(A -> B : x ; B -> C : y) ; A -> C : z") == Seq((Seq((x, y)), z))
    # A -> C : z cannot follow B -> C : y alone, so the grouped chain is
    # undefined although the flat one is defined.
    grouped = parse_choreography("A -> B : x ; (B -> C : y ; A -> C : z)")
    assert grouped == Seq((x, Seq((y, z))))
    with pytest.raises(UndefinedSemantics):
        semantics(grouped)
    semantics(Seq((x, y, z)))


def test_explicit_annotations_respected():
    g = parse_choreography("A -> B : x @cp 7")
    assert cps_by_kind(g) == {7: "Interaction"}


def test_mixed_annotations_rejected():
    with pytest.raises(ParseError, match="annotat"):
        parse_choreography("A -> B : x @cp 3 ; B -> C : y")


def test_duplicate_annotation_rejected():
    with pytest.raises(ParseError, match="control point 3"):
        parse_choreography("A -> B : x @cp 3 ; B -> C : y @cp 3")


def test_cp_marker_needs_space():
    # "@cp1" is not the @cp marker followed by 1
    with pytest.raises(ParseError):
        parse_choreography("A -> B : m @cp1")


def test_comments_are_skipped():
    g = parse_choreography("// greet\nA -> B : hi // trailing\n// done\n")
    assert isinstance(g, Interaction)
    assert g.message == "hi"


def test_parse_error_reports_position():
    try:
        parse_choreography("A -> B : m ;\nB -> : x")
    except ParseError as exc:
        assert exc.line == 2
        assert "^" in str(exc)
    else:
        pytest.fail("expected ParseError")


def test_caret_keeps_the_tabs_of_the_line():
    # A terminal widens the tab, and the caret line's tab with it.
    with pytest.raises(ParseError) as exc:
        parse_choreography("A -> B : m ;\n\tB -> C : $")
    assert (exc.value.line, exc.value.col) == (2, 11)
    assert str(exc.value) == (
        "parse error at line 2, column 11: unexpected character '$'\n"
        "  \tB -> C : $\n"
        "  \t         ^"
    )


@pytest.mark.parametrize(
    "text",
    [
        "(" * 1000 + "A -> B : m" + ")" * 1000,
    ],
    ids=["nested-parentheses"],
)
def test_deep_input_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_choreography(text)


def test_reserved_words_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_choreography("loop -> B : m")
    with pytest.raises(ParseError):
        parse_choreography("A -> par : m")
    with pytest.raises(ParseError):
        parse_choreography("A -> B : unless")


def test_missing_brace():
    with pytest.raises(ParseError):
        parse_choreography("par { A -> B : m | C -> D : n")


def test_choice_requires_unless():
    with pytest.raises(ParseError):
        parse_choreography("choice { { A -> B : m } + { A -> B : y } unless tt }")


def test_guard_precedence():
    g = parse_guard("! count(m, A->B) >= 1 && x in A->B || tt")
    assert g == Or(
        And(Not(CountAtom("m", Channel("A", "B"), ">=", 1)),
            MemberAtom("x", Channel("A", "B"))),
        GTrue(),
    )


def test_guard_parens():
    g = parse_guard("!(tt || ff)")
    assert g == Not(Or(GTrue(), GFalse()))


def test_guard_all_count_operators():
    for op in ("<", "<=", "==", ">=", ">"):
        g = parse_guard(f"count(m, A->B) {op} 3")
        assert g == CountAtom("m", Channel("A", "B"), op, 3)


atoms = st.one_of(
    st.just(GTrue()),
    st.just(GFalse()),
    st.builds(
        CountAtom,
        st.sampled_from(["m", "y", "upd"]),
        st.sampled_from([Channel("A", "B"), Channel("B", "A"), Channel("A", "C")]),
        st.sampled_from(["<", "<=", "==", ">=", ">"]),
        st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        MemberAtom,
        st.sampled_from(["m", "y"]),
        st.sampled_from([Channel("A", "B"), Channel("B", "A")]),
    ),
)

guards = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
    ),
    max_leaves=8,
)


@given(guards)
def test_guard_text_round_trips(g):
    assert parse_guard(guard_text(g)) == g


def test_guards_of_different_kinds_differ():
    # Why guards stay dataclasses: as named tuples both pairs would be equal.
    a, b = GTrue(), MemberAtom("m", Channel("A", "B"))
    assert GTrue() != GFalse()
    assert Or(a, b) != And(a, b)
    assert len({GTrue(), GFalse(), Or(a, b), And(a, b)}) == 4


@given(guards)
def test_desugar_leaves_core_connectives(g):
    core = desugar(g)

    def walk(h):
        assert not isinstance(h, (And, GFalse))
        if isinstance(h, Not):
            walk(h.inner)
        elif isinstance(h, Or):
            walk(h.left)
            walk(h.right)

    walk(core)


@given(
    guards,
    st.lists(
        st.tuples(
            st.sampled_from([Channel("A", "B"), Channel("B", "A"), Channel("A", "C")]),
            st.lists(st.sampled_from(["m", "y", "upd"]), max_size=4),
        ),
        max_size=3,
    ),
)
def test_desugar_preserves_meaning(g, raw):
    from chorrev.runtime import ChannelState, Configuration, Log

    chi = {}
    for ch, msgs in raw:
        logs = tuple(Log(m, 0, 1, i + 1) for i, m in enumerate(msgs))
        chi[ch] = ChannelState(logs, len(logs) // 2)
    cfg = Configuration.make({}, chi, {})
    assert eval_guard(g, cfg) == eval_guard(desugar(g), cfg)
    assert eval_guard(g, cfg, PENDING) == eval_guard(desugar(g), cfg, PENDING)


def test_validate_accepts_travel(travel_chor):
    assert validate(travel_chor).ok


def test_validate_duplicate_control_point():
    g = Seq((Interaction("A", "B", "m", 1), Interaction("B", "C", "n", 1)))
    report = validate(g)
    assert not report.ok
    assert [i.kind for i in report.issues] == ["duplicate-control-point"]


def test_validate_controller_absent():
    g = Loop("A", Interaction("B", "C", "m", 2), 1)
    report = validate(g)
    assert [i.kind for i in report.issues] == ["loop-controller-absent"]


def _walked_participants(g):
    out = set()
    for node in subterms(g):
        if isinstance(node, Interaction):
            out |= {node.sender, node.receiver}
        elif isinstance(node, Loop):
            out.add(node.controller)
    return out


@given(shapes)
def test_participants_and_absent_controllers_match_a_walk_of_each_body(shape):
    g = build(shape)
    assert participants(g) == _walked_participants(g)
    absent = [
        node.cp
        for node in subterms(g)
        if isinstance(node, Loop) and node.controller not in _walked_participants(node.body)
    ]
    issues = validate(g).issues
    assert [i.cp for i in issues if i.kind == "loop-controller-absent"] == absent


def test_validate_nonpositive_control_point():
    g = Interaction("A", "B", "m", 0)
    assert [i.kind for i in validate(g).issues] == ["nonpositive-control-point"]


def test_validate_self_channel():
    g = Interaction("A", "A", "m", 1)
    assert [i.kind for i in validate(g).issues] == ["self-channel"]


def test_validate_guard_self_channel():
    g = Choice(
        (
            ChoiceBranch(Interaction("A", "B", "m", 2), CountAtom("m", Channel("A", "A"), ">=", 1)),
            ChoiceBranch(Interaction("A", "B", "y", 3), GTrue()),
        ),
        1,
    )
    assert "self-channel" in [i.kind for i in validate(g).issues]


def test_validate_par_arity():
    g = Par((Interaction("A", "B", "m", 2),), 1)
    assert [i.kind for i in validate(g).issues] == ["par-arity"]


def test_validate_choice_arity():
    g = Choice((ChoiceBranch(Interaction("A", "B", "m", 2), GTrue()),), 1)
    assert [i.kind for i in validate(g).issues] == ["choice-arity"]


def test_validate_bad_operator_and_bound():
    g = Choice(
        (
            ChoiceBranch(Interaction("A", "B", "m", 2), CountAtom("m", Channel("A", "B"), "!=", 1)),
            ChoiceBranch(Interaction("A", "B", "y", 3), CountAtom("y", Channel("A", "B"), ">=", -2)),
        ),
        1,
    )
    kinds = sorted(i.kind for i in validate(g).issues)
    assert kinds == ["bad-operator", "nonnegative-bound"]
