"""Surface syntax: sorts, terms, elaboration, bundle files, printing."""

import pytest

from clonal.firstorder import FoOp, FoVar, bool_presentation, global_state_presentation
from clonal.freealgebra import CloneApp, FreeOp, FreeVar, enumerate_free_terms
from clonal.secondorder import stlc_presentation
from clonal.sorts import Context, Sort, arrow
from clonal.stlc import false_term, true_term
from clonal.surface import (
    ParseError,
    parse_bundle,
    parse_context,
    parse_term,
    render_free,
    sort_text,
    stock_bundle,
)

B = Sort("b")
BB = arrow(B, B)
E = Context(())


def bundle_source(name):
    from importlib import resources

    return resources.files("clonal.bundles").joinpath(f"{name}.bundle").read_text()


class TestSorts:
    def test_arrow_is_right_associative(self):
        bundle = stock_bundle("stlc")
        assert sort_text(bundle.sort_set, "b => b => b") == arrow(B, arrow(B, B))

    def test_parenthesized_left_argument(self):
        bundle = stock_bundle("stlc")
        assert sort_text(bundle.sort_set, "(b => b) => b") == arrow(BB, B)

    def test_unknown_sort_rejected_with_position(self):
        bundle = stock_bundle("stlc")
        with pytest.raises(ParseError) as e:
            sort_text(bundle.sort_set, "b => q")
        assert e.value.col == 6


class TestTerms:
    def test_nullary_operators(self):
        bundle = stock_bundle("bool")
        assert parse_term(bundle, "true", B) == true_term()
        assert parse_term(bundle, "false", B) == false_term()

    def test_beta_redex_surface_form(self):
        bundle = stock_bundle("bool")
        t = parse_term(bundle, "app (abs x. x) true", B)
        want = FreeOp(
            "app", (B, B),
            ((E, FreeOp("abs", (B, B), ((Context((B,)), FreeVar(1)),))), (E, true_term())),
        )
        assert t == want

    def test_variable_headed_chain_is_iterated_application(self):
        bundle = stock_bundle("bool")
        ctx, names = parse_context(bundle, "f : b => b => b, y : b")
        t = parse_term(bundle, "f y y", B, ctx, names)
        inner = FreeOp("app", (B, arrow(B, B)), ((E, FreeVar(1)), (E, FreeVar(2))))
        assert t == FreeOp("app", (B, B), ((E, inner), (E, FreeVar(2))))

    def test_unannotated_redex_head_takes_its_sort_from_the_argument(self):
        bundle = stock_bundle("bool")
        t = parse_term(bundle, "(abs x. x) true", B)
        assert t == FreeOp(
            "app", (B, B),
            ((E, FreeOp("abs", (B, B), ((Context((B,)), FreeVar(1)),))), (E, true_term())),
        )

    def test_put_value_label(self):
        bundle = stock_bundle("gs")
        ctx, names = parse_context(bundle, "x : b")
        t = parse_term(bundle, "put v1 (put v2 x)", B, ctx, names)
        inner = CloneApp(FoOp("put_v2", (), (FoVar(1),)), Context((B,)), B, (FreeVar(1),))
        want = CloneApp(FoOp("put_v1", (), (FoVar(1),)), Context((B,)), B, (inner,))
        assert t == want

    def test_conditional_infers_its_sort_parameter(self):
        bundle = stock_bundle("bool")
        ctx, names = parse_context(bundle, "c : b")
        t = parse_term(bundle, "ite c (abs x. x) (abs x. x)", BB, ctx, names)
        assert isinstance(t, CloneApp)
        assert t.element.sort_args == (BB,)

    def test_raw_indices(self):
        bundle = stock_bundle("bool")
        ctx = Context((B, B))
        t = parse_term(bundle, "ite #1 #2 false", B, ctx, ["a", "b_"])
        assert t.args[0] == FreeVar(1) and t.args[1] == FreeVar(2)

    def test_annotation_mismatch_rejected(self):
        bundle = stock_bundle("bool")
        with pytest.raises(ParseError):
            parse_term(bundle, "abs x : b => b. x", BB)

    def test_unknown_name_rejected(self):
        bundle = stock_bundle("bool")
        with pytest.raises(ParseError) as e:
            parse_term(bundle, "whatever", B)
        assert "unknown name" in str(e.value)

    def test_sort_mismatch_rejected(self):
        bundle = stock_bundle("bool")
        with pytest.raises(ParseError):
            parse_term(bundle, "true", BB)


class TestRenderRoundTrip:
    def test_parse_after_render_is_provably_equal(self):
        # rendering resugars element applications, so collapsible shapes
        # like <x1>(t) read back as t; round-tripping preserves the term
        # up to the theory's equality
        bundle = stock_bundle("bool")
        ctx = Context((B, BB))
        names = ["x1", "x2"]
        for sort in (B, BB):
            for t in enumerate_free_terms(bundle.free, ctx, sort, max_size=5)[:200]:
                text = render_free(t, names)
                again = parse_term(bundle, text, sort, ctx, names)
                assert bundle.free.term_eq(ctx, sort, again, t), f"{t} -> {text} -> {again}"

    def test_render_resugars_elements(self):
        bundle = stock_bundle("gs")
        t = CloneApp(
            FoOp("get", (), (FoOp("put_v1", (), (FoVar(1),)), FoOp("put_v2", (), (FoVar(1),)))),
            Context((B,)), B, (FreeVar(1),),
        )
        assert render_free(t, ["x"]) == "get (put v1 x) (put v2 x)"


class TestBundleFiles:
    def test_stock_bundles_parse(self):
        for name in ("stlc", "stlc_bool", "stlc_gs"):
            bundle = parse_bundle(bundle_source(name))
            assert bundle.name == name

    def test_parsed_bool_matches_programmatic_presentation(self):
        parsed = parse_bundle(bundle_source("stlc_bool"))
        reference = bool_presentation()
        assert {o.name for o in parsed.base.signature.operators} == {
            o.name for o in reference.signature.operators
        }
        for eq_name in ("ite_true", "ite_false"):
            for sort in (B, BB):
                got = parsed.base.equation(eq_name).instantiate((sort,))
                want = reference.equation(eq_name).instantiate((sort,))
                assert got == want

    def test_parsed_gs_matches_programmatic_presentation(self):
        parsed = parse_bundle(bundle_source("stlc_gs"))
        reference = global_state_presentation(("v1", "v2"))
        assert len(parsed.base.equations) == len(reference.equations) == 7
        for schema in reference.equations:
            got = parsed.base.equation(schema.name).instantiate(())
            want = schema.instantiate(())
            assert got == want

    def test_parsed_surface_matches_programmatic_presentation(self):
        parsed = parse_bundle(bundle_source("stlc"))
        reference = stlc_presentation()
        for eq_name in ("beta", "eta"):
            got = parsed.surface.equation(eq_name).instantiate((B, BB))
            want = reference.equation(eq_name).instantiate((B, BB))
            assert got == want

    def test_parsed_bundle_normalizes(self):
        from clonal.nbe import nbe_normalize

        bundle = parse_bundle(bundle_source("stlc_bool"))
        t = parse_term(bundle, "app (abs x. x) true", B)
        assert nbe_normalize(bundle.free, E, B, t) == true_term()

    def test_malformed_bundle_reports_position(self):
        with pytest.raises(ParseError):
            parse_bundle("bundle broken\nsorts b\nsurface s\n  op app : oops\nend")


class TestContexts:
    def test_empty(self):
        bundle = stock_bundle("bool")
        ctx, names = parse_context(bundle, "")
        assert len(ctx) == 0 and names == []

    def test_two_entries(self):
        bundle = stock_bundle("bool")
        ctx, names = parse_context(bundle, "x : b, f : b => b")
        assert ctx == Context((B, BB))
        assert names == ["x", "f"]
