from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealgames import convergence as cv, dsl, ideals as il, seqspace as sq, setexpr as sx
from idealgames.errors import DslParseError


def _parse_back(obj):
    """parse(print(obj)) with the parser for obj's kind."""
    text = dsl.dump(obj)
    if isinstance(obj, sx.SetExpr):
        assert obj.to_dsl() == text
        return dsl.parse_set(text)
    assert obj.label() == text
    if isinstance(obj, sq.SeqDescriptor):
        return dsl.parse_seq(text)
    if isinstance(obj, sq.TermRule):  # a rule is read inside a sequence
        return dsl.parse_seq(f"seq([],{text})").tail
    return dsl.parse_transform(text)


class TestSets:
    def test_finite(self):
        assert dsl.parse_set("finite{3,7}") == sx.Finite((3, 7))
        assert dsl.parse_set("finite{}") == sx.Finite(())

    def test_ap_tail(self):
        assert dsl.parse_set("ap(2,2)") == sx.ArithProg(2, 2)
        assert dsl.parse_set("tail(5)") == sx.Tail(5)

    def test_schedules(self):
        s = dsl.parse_set("isch(pow2)")
        assert isinstance(s, sx.IntervalSchedule)
        assert s.selector == sx.Tail(1)
        assert dsl.parse_set("isch(pow2,even)").selector == sx.ArithProg(2, 2)
        assert dsl.parse_set("isch(linear,{1,3})").selector == sx.Finite((1, 3))
        assert dsl.parse_set("isch(expE,all)").gen.name == "expE"

    def test_boolean(self):
        s = dsl.parse_set("union(inter(ap(2,2),tail(5)),compl(finite{1}))")
        assert s.member(6) and s.member(2) and not s.member(1)

    def test_whitespace_tolerated(self):
        s = dsl.parse_set(" union( ap(1,2) , finite{ 2 } ) ")
        assert s.member(1) and s.member(2) and not s.member(4)

    def test_round_trip_via_to_dsl(self):
        for text in (
            "finite{3,7}",
            "ap(2,2)",
            "tail(9)",
            "isch(pow2)",
            "isch(esum,even)",
            "isch(linear,{2,4})",
            "union(ap(1,2),compl(tail(40)))",
            "inter(ap(2,2),tail(5))",
        ):
            expr = dsl.parse_set(text)
            assert dsl.parse_set(expr.to_dsl()) == expr
        # The identity rule, constants, explicit prefixes, any isch selector,
        # transformed sequences and permutations.
        for obj in (
            sq.PiecewiseOnSet(sx.ArithProg(2, 2), sq.RULE_IDENT, sq.CONST_ZERO),
            sq.ExplicitTail((), sq.TermRule("const", 3)),
            sq.ExplicitTail((Fraction(1, 2), 3), sq.RULE_INV),
            sx.IntervalSchedule(sx.generator("pow2"), sx.ArithProg(1, 3)),
            sq.Transformed(sq.AlternatingPair(0, 1), sq.Subseq((1, 3))),
            sq.Perm((2, 1, 3)),
            sq.TermRule("inv", 5),
        ):
            assert _parse_back(obj) == obj


class TestSeqs:
    def test_alt(self):
        x = dsl.parse_seq("alt(0,1)")
        assert x == sq.AlternatingPair(0, 1)

    def test_alt_fractions(self):
        x = dsl.parse_seq("alt(1/2,-1/3)")
        assert x.v0 == Fraction(1, 2) and x.v1 == Fraction(-1, 3)

    def test_inv(self):
        x = dsl.parse_seq("inv")
        assert x.term(4) == Fraction(1, 4)

    def test_enums(self):
        assert isinstance(dsl.parse_seq("ratenum"), sq.RationalEnum)
        assert isinstance(dsl.parse_seq("ratenum-signed"), sq.SignedRationalEnum)

    def test_piecewise(self):
        x = dsl.parse_seq("piecewise(finite{4,9},n,0)")
        assert x.term(4) == 4 and x.term(5) == 0

    def test_const(self):
        assert dsl.parse_seq("const(3)").term(17) == 3

    def test_decimal_is_exact(self):
        x = dsl.parse_seq("alt(0.1,0)")
        assert x.v0 == Fraction(1, 10)


class TestTransforms:
    def test_stem(self):
        t = dsl.parse_transform("stem[2,4,6]")
        assert isinstance(t, sq.Subseq) and t.stem == (2, 4, 6)

    def test_set(self):
        t = dsl.parse_transform("set(ap(2,2))")
        assert t.index(3) == 6

    def test_perm(self):
        t = dsl.parse_transform("perm-stem[2,1]")
        assert isinstance(t, sq.Perm) and t.index(1) == 2 and t.index(3) == 3


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(DslParseError) as err:
            dsl.parse_set("union(ap(2,2)")
        assert err.value.line == 1

    def test_trailing_garbage(self):
        with pytest.raises(DslParseError):
            dsl.parse_set("tail(5)x")

    def test_unknown_name(self):
        with pytest.raises(DslParseError):
            dsl.parse_set("blob(3)")

    def test_multiline_position(self):
        with pytest.raises(DslParseError) as err:
            dsl.parse_set("union(ap(1,2),\n  blob)")
        assert err.value.line == 2

    @pytest.mark.parametrize("outer", ["union({},finite{{1}})", "compl({})"])
    def test_nesting_bound(self, outer):
        # MAX_DEPTH constructors, the innermost ap(1,2) counting one.
        inner = "ap(1,2)"
        for _ in range(dsl.MAX_DEPTH - 2):
            inner = outer.format(inner)
        text = outer.format(inner)
        s = dsl.parse_set(text)
        assert dsl.parse_set(dsl.dump(s)) == s
        for ideal in il.BUILTINS:
            il.classify(ideal, s)
            il.classify(ideal, s)  # a second call meets the reduce memo
        # piecewise(...) is one more level around its set.
        x = dsl.parse_seq(f"piecewise({inner},n,0)")
        assert dsl.parse_seq(dsl.dump(x)) == x
        assert cv.cluster_points(x, il.density0(), 1000, 0.05).points == (0.0,)
        deeper = outer.format(text)
        with pytest.raises(DslParseError) as err:
            dsl.parse_set(deeper)
        assert (err.value.line, err.value.column) == (1, deeper.index("ap(1,2)") + 1)
        with pytest.raises(DslParseError):
            dsl.parse_seq(f"piecewise({text},n,0)")

    def test_transform_chain_counts_toward_the_bound(self):
        chain = "alt(0,1)" + "@stem[1,3]" * (dsl.MAX_DEPTH - 2)
        x = dsl.parse_seq(chain)
        assert dsl.parse_seq(dsl.dump(x)) == x and x.term(1) == 0
        with pytest.raises(DslParseError, match="nesting deeper than"):
            dsl.parse_seq(chain + "@stem[1,3]")


# Strategies for every class the DSL names; sets reuse the shape of
# tests/test_periodic.py's _exprs.
_nums = st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=12),
    st.floats(allow_nan=False, allow_infinity=False),
)
_leaf = st.one_of(
    st.lists(st.integers(1, 60), max_size=6).map(lambda v: sx.Finite(tuple(v))),
    st.tuples(st.integers(1, 12), st.integers(1, 8)).map(lambda t: sx.ArithProg(*t)),
    st.integers(1, 40).map(sx.Tail),
)
_boolean = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: sx.Union(*t)),
        st.tuples(inner, inner).map(lambda t: sx.Inter(*t)),
        inner.map(sx.Compl),
    ),
    max_leaves=4,
)
_schedules = st.builds(
    sx.IntervalSchedule,
    st.sampled_from(["linear", "pow2", "expE", "esum", "odd2"]).map(sx.generator),
    st.one_of(
        st.just(sx.Tail(1)),
        st.just(sx.EVENS),
        st.lists(st.integers(1, 30), max_size=5).map(lambda v: sx.Finite(tuple(v))),
        _boolean,
    ),
)
_sets = st.recursive(
    st.one_of(_leaf, _schedules),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: sx.Union(*t)),
        st.tuples(inner, inner).map(lambda t: sx.Inter(*t)),
        inner.map(sx.Compl),
    ),
    max_leaves=5,
)
_rules = st.one_of(
    st.sampled_from([sq.RULE_IDENT, sq.RULE_INV, sq.RULE_ALTSIGN]),
    _nums.map(lambda v: sq.TermRule("const", v)),
)
_transforms = st.one_of(
    st.lists(st.integers(1, 200), max_size=8, unique=True).map(
        lambda v: sq.Subseq(tuple(sorted(v)))
    ),
    _sets.map(sq.Subseq.from_set),
    st.permutations(range(1, 7)).map(lambda p: sq.Perm(tuple(p))),
    st.just(sq.Perm()),
)
_base_seqs = st.one_of(
    st.builds(sq.AlternatingPair, _nums, _nums),
    st.builds(sq.ExplicitTail, st.lists(_nums, max_size=4).map(tuple), _rules),
    st.just(sq.RationalEnum()),
    st.just(sq.SignedRationalEnum()),
    st.builds(sq.PiecewiseOnSet, _sets, _rules, _rules),
)
_seqs = st.recursive(
    _base_seqs,
    lambda inner: st.builds(sq.Transformed, inner, _transforms),
    max_leaves=3,
)


class TestTwoWay:
    """Every printed form parses back to the object that printed it."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_sets, _rules, _transforms, _seqs))
    def test_parse_of_print_is_identity(self, obj):
        back = _parse_back(obj)
        assert back == obj
        assert dsl.dump(back) == dsl.dump(obj)

    @settings(max_examples=150, deadline=None)
    @given(_sets.flatmap(lambda a: st.tuples(
        st.just(a), st.one_of(_sets, st.just(dsl.parse_set(dsl.dump(a))))
    )))
    def test_set_equality_and_hash_agree_with_printing(self, pair):
        a, b = pair
        assert (a == b) == (dsl.dump(a) == dsl.dump(b))
        if a == b:
            assert hash(a) == hash(b)

    def test_labels_that_parsed_keep_their_bytes(self):
        for text in (
            "alt(1/2,-1/3)",
            "inv",
            "ratenum",
            "ratenum-signed",
            "piecewise(isch(esum,even),inv,altsign)",
        ):
            assert dsl.parse_seq(text).label() == text
        for text in ("stem[]", "stem[2,4,6]", "set(ap(2,2))", "perm-stem[2,1]"):
            assert dsl.parse_transform(text).label() == text
        for text in (
            "finite{}",
            "finite{3,7}",
            "isch(pow2)",
            "isch(esum,even)",
            "isch(linear,{2,4})",
            "union(ap(1,2),compl(tail(40)))",
            "inter(ap(2,2),tail(5))",
        ):
            assert dsl.parse_set(text).to_dsl() == text

    def test_new_forms(self):
        assert dsl.parse_seq("seq([1/2,3],inv)") == sq.ExplicitTail(
            (Fraction(1, 2), 3), sq.RULE_INV
        )
        assert dsl.parse_seq("seq([],inv)").label() == "inv"
        assert dsl.parse_seq("seq([],7)").label() == "const(7)"
        for text in ("const(-3/4)", "piecewise(finite{4,9},n,0)", "seq([1/2,3],inv)"):
            assert dsl.parse_seq(text).label() == text
        assert sq.ExplicitTail((), sq.RULE_IDENT).label() == "seq([],n)"
        assert sq.ExplicitTail((), sq.RULE_ALTSIGN).label() == "seq([],altsign)"
        assert dsl.parse_set("isch(pow2,all)").to_dsl() == "isch(pow2)"
        assert dsl.parse_set("isch(pow2,union(ap(1,3),tail(9)))").selector == sx.Union(
            sx.ArithProg(1, 3), sx.Tail(9)
        )
        x = dsl.parse_seq("alt(0,1)@stem[1,3]@perm-stem[2,1]")
        assert x == sq.Transformed(
            sq.Transformed(sq.AlternatingPair(0, 1), sq.Subseq((1, 3))), sq.Perm((2, 1))
        )
        assert [x.term(n) for n in (1, 2, 3)] == [0, 0, 1]  # x at 3, 1, 4
        assert sq.AlternatingPair(0.5, 2).label() == "alt(1/2,2)"

    @pytest.mark.parametrize("parse, text", [
        (dsl.parse_seq, "const(n)"),
        (dsl.parse_seq, "seq([1],)"),
        (dsl.parse_seq, "alt(0,1)@"),
        (dsl.parse_set, "isch(pow2,<ap(1,3)>)"),
        (dsl.parse_set, "ap(1/2,3)"),
    ])
    def test_rejected_forms(self, parse, text):
        with pytest.raises(DslParseError):
            parse(text)

    def test_reprs_are_the_dataclass_ones(self):
        assert repr(sx.Tail(3)) == "Tail(start=3)"
        assert repr(sq.RationalEnum()) == "RationalEnum()"
