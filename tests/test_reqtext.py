"""The line-oriented requirements grammar: parsing, errors, canonical form."""

import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vbereq import (
    AnchorDesignation,
    And,
    Atom,
    AvgOfOthers,
    Comparator,
    CountActors,
    ForAllActors,
    MetricId,
    NetworkConstraint,
    Not,
    Or,
    PairwisePath,
    PathScope,
    RequirementSyntaxError,
    parse_requirements,
    serialize_requirements,
    template_steel_vbe,
    template_wholesaler,
)

FIXTURES = Path(__file__).parents[1] / "src" / "vbereq" / "fixtures"
README = Path(__file__).parents[1] / "README.md"

# Python refuses int <-> str conversions of more digits than this; 0 means
# the interpreter sets no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (DIGIT_LIMIT + 700)


def parse_one(body_text: str):
    reqs = parse_requirements(f"require x : {body_text}\n")
    assert len(reqs.requirements) == 1
    return reqs.requirements[0].body


class TestStatements:
    def test_set_statement_names_the_set(self):
        reqs = parse_requirements("set my-set\nrequire a : size >= 1\n")
        assert reqs.name == "my-set"

    def test_default_name(self):
        assert parse_requirements("require a : size >= 1\n").name == "requirements"

    def test_set_must_come_first_and_once(self):
        with pytest.raises(RequirementSyntaxError, match="before"):
            parse_requirements("require a : size >= 1\nset late\n")
        with pytest.raises(RequirementSyntaxError, match="duplicate 'set'"):
            parse_requirements("set a\nset b\n")

    def test_comments_and_blank_lines_ignored(self):
        reqs = parse_requirements("# heading\n\n  \nrequire a : size >= 1\n")
        assert len(reqs.requirements) == 1

    def test_anchor_without_id(self):
        reqs = parse_requirements("anchor\n")
        assert reqs.requirements[0].body == AnchorDesignation(None)
        assert reqs.requirements[0].label == "anchor"

    def test_anchor_with_rest_of_line_id(self):
        reqs = parse_requirements("anchor Acme Steel GmbH\n")
        assert reqs.anchor == "Acme Steel GmbH"

    def test_auto_labels_number_by_position(self):
        reqs = parse_requirements(
            "require size >= 1\nrequire named : size >= 2\nrequire density <= 90%\n"
        )
        assert [r.label for r in reqs.requirements] == ["r1", "named", "r3"]

    def test_unknown_statement(self):
        with pytest.raises(RequirementSyntaxError, match="unknown statement"):
            parse_requirements("ensure size >= 1\n")

    def test_duplicate_labels_are_syntax_errors(self):
        with pytest.raises(RequirementSyntaxError, match="duplicate"):
            parse_requirements("require a : size >= 1\nrequire a : size >= 2\n")


class TestBodies:
    def test_network_constraint(self):
        assert parse_one("size >= 5") == NetworkConstraint(
            MetricId.SIZE, Comparator.GE, 5
        )
        assert parse_one("density > 50%") == NetworkConstraint(
            MetricId.DENSITY, Comparator.GT, Fraction(1, 2)
        )
        assert parse_one("recip_ratio > 1/2") == NetworkConstraint(
            MetricId.RECIPROCATED_TIE_RATIO, Comparator.GT, Fraction(1, 2)
        )
        assert parse_one("avg_path_length <= 1.5") == NetworkConstraint(
            MetricId.AVG_PATH_LENGTH, Comparator.LE, Fraction(3, 2)
        )

    def test_long_metric_aliases(self):
        assert parse_one("reciprocated_tie_ratio >= 10%").metric is (
            MetricId.RECIPROCATED_TIE_RATIO
        )

    def test_equals_alias(self):
        assert parse_one("size = 4").cmp is Comparator.EQ

    def test_forall(self):
        body = parse_one("forall actor (in_density > 50% or out_density > 50%)")
        assert body == ForAllActors(
            Or(
                (
                    Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(1, 2)),
                    Atom(MetricId.OUT_DENSITY, Comparator.GT, Fraction(1, 2)),
                )
            )
        )

    def test_forall_except_anchor_requires_designation(self):
        text = "anchor\nrequire x : forall actor except anchor (in_degree >= 1)\n"
        body = parse_requirements(text).requirements[1].body
        assert body.except_anchor
        with pytest.raises(RequirementSyntaxError, match="designation"):
            parse_requirements("require x : forall actor except anchor (in_degree >= 1)\n")

    def test_count(self):
        body = parse_one("count actor (in_density > 80%) >= 1")
        assert body == CountActors(
            Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(4, 5)),
            Comparator.GE,
            1,
        )
        assert not body.fraction_of_size

    def test_count_fraction_of_size(self):
        body = parse_one("count actor (in_degree >= 1) >= 50%")
        assert body.fraction_of_size and body.bound == Fraction(1, 2)
        body = parse_one("count actor (in_degree >= 1) <= 1/3")
        assert body.fraction_of_size and body.bound == Fraction(1, 3)

    def test_exists_sugar(self):
        sugar = parse_one("exists >= 1 actor (in_density > 80%)")
        canonical = parse_one("count actor (in_density > 80%) >= 1")
        assert sugar == canonical

    def test_path_scopes(self):
        def parse_anchored(body_text: str):
            reqs = parse_requirements(f"anchor\nrequire x : {body_text}\n")
            return reqs.requirements[1].body

        assert parse_anchored("path anchor->others == 1") == PairwisePath(
            PathScope.ANCHOR_TO_OTHERS, Comparator.EQ, 1
        )
        assert parse_one("path all->all <= 2") == PairwisePath(
            PathScope.ALL_PAIRS, Comparator.LE, 2
        )
        body = parse_anchored("path others->others > 1")
        assert body.between is PathScope.OTHERS_TO_OTHERS

    def test_path_scope_needs_designation(self):
        with pytest.raises(RequirementSyntaxError, match="designation"):
            parse_requirements("require x : path anchor->others == 1\n")

    def test_predicate_precedence_and_not(self):
        body = parse_one(
            "forall actor (not in_degree < 1 and out_degree > 0 or recip_count >= 1)"
        )
        pred = body.predicate
        assert isinstance(pred, Or)
        left = pred.parts[0]
        assert isinstance(left, And)
        assert isinstance(left.parts[0], Not)
        assert isinstance(left.parts[0].part, Atom)

    def test_parenthesized_grouping(self):
        body = parse_one("forall actor (in_degree > 0 and (out_degree > 0 or recip_count > 0))")
        pred = body.predicate
        assert isinstance(pred, And)
        assert isinstance(pred.parts[1], Or)

    def test_avg_others_reference(self):
        body = parse_one("count actor (in_degree > avg_others(in_degree)) >= 1")
        ref = body.predicate.reference
        assert ref == AvgOfOthers(MetricId.IN_DEGREE)

    def test_at_parent_without_except(self):
        body = parse_one("forall actor (neighborhood_size > 1 @parent)")
        assert body.predicate.on_parent
        assert not body.except_anchor

    def test_at_parent_with_designation(self):
        text = "anchor\nrequire x : forall actor except anchor (neighborhood_size > 1 @parent)\n"
        body = parse_requirements(text).requirements[1].body
        assert body.predicate.on_parent


class TestErrors:
    def test_bare_number_for_unit_interval_metric(self):
        with pytest.raises(RequirementSyntaxError, match="% suffix") as exc:
            parse_requirements("require density > 50\n")
        assert exc.value.line == 1
        assert exc.value.col == 19

    def test_column_points_at_the_problem(self):
        with pytest.raises(RequirementSyntaxError) as exc:
            parse_requirements("require x : size >= \n")
        assert "unexpected end of line" in str(exc.value)

    def test_unknown_metric(self):
        with pytest.raises(RequirementSyntaxError, match="unknown metric"):
            parse_one("fame >= 1")

    def test_actor_metric_in_network_position(self):
        with pytest.raises(RequirementSyntaxError, match="actor-scoped"):
            parse_one("in_degree >= 1")

    def test_network_metric_in_atom_position(self):
        with pytest.raises(RequirementSyntaxError, match="network-scoped"):
            parse_one("forall actor (density > 50%)")

    def test_unexpected_character(self):
        with pytest.raises(RequirementSyntaxError, match="unexpected character"):
            parse_requirements("require x : size >= $5\n")

    def test_unexpected_character_is_located_at_it(self):
        with pytest.raises(RequirementSyntaxError) as exc:
            parse_requirements("require x : size >= $5\n")
        assert str(exc.value) == "line 1, column 21: unexpected character '$'"

    def test_trailing_tokens(self):
        with pytest.raises(RequirementSyntaxError, match="trailing"):
            parse_requirements("require x : size >= 5 extra\n")

    def test_zero_denominator(self):
        with pytest.raises(RequirementSyntaxError, match="zero denominator"):
            parse_requirements("require x : size >= 1/0\n")

    @pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no integer digit limit")
    @pytest.mark.parametrize(
        "literal",
        [
            pytest.param(TOO_LONG, id="integer"),
            pytest.param(f"1/{TOO_LONG}", id="n/d-denominator"),
            pytest.param(f"{TOO_LONG}/1", id="n/d-numerator"),
            pytest.param(f"1.{TOO_LONG}", id="decimal"),
            pytest.param(f"{TOO_LONG}%", id="percent"),
            # Parses within the limit, but its denominator 10**DIGIT_LIMIT
            # would be one digit too long to write back.
            pytest.param("1." + "1" * (DIGIT_LIMIT - 2) + "%", id="unrenderable-percent"),
        ],
    )
    def test_over_long_number_is_a_located_error(self, literal):
        with pytest.raises(RequirementSyntaxError, match="too many digits") as exc:
            parse_requirements(f"require x : density >= {literal}\n")
        assert (exc.value.line, exc.value.col) == (1, 24)

    def test_unknown_path_scope(self):
        with pytest.raises(RequirementSyntaxError, match="unknown path scope"):
            parse_requirements("require x : path anchor->all == 1\n")

    def test_fractional_path_threshold(self):
        with pytest.raises(RequirementSyntaxError, match="integers"):
            parse_requirements("require x : path all->all <= 1.5\n")

    def test_missing_paren(self):
        with pytest.raises(RequirementSyntaxError, match=r"\)"):
            parse_requirements("require x : forall actor (in_degree > 1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(RequirementSyntaxError) as exc:
            parse_requirements("require a : size >= 1\nrequire b : bogus >= 1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            ("require x : count actor (in_degree >= 1) >= 150%", "must lie in", 1, 45),
            ("require x : forall actor (in_density > 2)", "explicit % suffix", 1, 40),
            ("require path all->all <= 5%", "path thresholds must be integers", 1, 26),
            ("require path all->all <= 3/2", "path thresholds must be integers", 1, 26),
            ("anchor a:b", "must not contain ',' or ':'", 1, 1),
            # Set-level errors point at the statement that breaks the set.
            (
                "set s\nrequire a : size >= 2\n\nrequire a : size >= 3",
                "duplicate requirement label 'a'",
                4,
                1,
            ),
            (
                "set s\nrequire size >= 2\n# rules\n  require path anchor->others <= 2"
                "\nrequire path others->others <= 3",
                "anchored constraints require an anchor designation",
                4,
                3,
            ),
            (
                "set s\nanchor A\nrequire size >= 2\nanchor B",
                "at most one anchor designation per set",
                4,
                1,
            ),
        ],
        ids=[
            "count-bound",
            "atom-threshold",
            "path-percent",
            "path-fraction",
            "anchor-id",
            "duplicate-label",
            "anchored-without-anchor",
            "second-anchor",
        ],
    )
    def test_ast_validation_errors_are_located(self, text, message, line, col):
        with pytest.raises(RequirementSyntaxError, match=message) as exc:
            parse_requirements(text + "\n")
        assert (exc.value.line, exc.value.col) == (line, col)

    @pytest.mark.parametrize(
        "text, message, col",
        [
            ("require a :", "missing requirement body", 12),
            ("require forall actors (in_degree > 1)", "expected 'actor', got 'actors'", 16),
            ("require forall actor (", "unexpected end of predicate", 23),
        ],
        ids=["no-body", "misspelt-keyword", "open-predicate"],
    )
    def test_grammar_errors_are_located(self, text, message, col):
        with pytest.raises(RequirementSyntaxError) as exc:
            parse_requirements(text + "\n")
        assert str(exc.value) == f"line 1, column {col}: {message}"


class TestCanonicalForm:
    def test_templates_round_trip(self):
        for template, fixture in (
            (template_steel_vbe(), "steel_vbe.req"),
            (template_wholesaler(), "wholesaler.req"),
        ):
            text = serialize_requirements(template)
            assert parse_requirements(text) == template
            assert serialize_requirements(parse_requirements(text)) == text
            # The fixture file the template is parsed from is canonical.
            assert (FIXTURES / fixture).read_text() == text

    def test_exists_normalizes_to_count(self):
        reqs = parse_requirements("require x : exists >= 2 actor (in_degree > 0)\n")
        assert "count actor (in_degree > 0) >= 2" in serialize_requirements(reqs)

    def test_percent_preferred_for_unit_interval(self):
        reqs = parse_requirements("require x : density > 1/2\n")
        assert "density > 50%" in serialize_requirements(reqs)

    def test_non_whole_percent_stays_fraction(self):
        reqs = parse_requirements("require x : density > 1/3\n")
        assert "density > 1/3" in serialize_requirements(reqs)

    def test_nested_predicates_render_with_parens(self):
        text = "require x : forall actor (not (in_degree > 0 or out_degree > 0) or recip_count >= 1)\n"
        reqs = parse_requirements(text)
        assert parse_requirements(serialize_requirements(reqs)) == reqs

    def test_serialized_anchor_line(self):
        reqs = parse_requirements("set s\nanchor A\nrequire x : path anchor->others == 1\n")
        assert serialize_requirements(reqs) == (
            "set s\nanchor A\nrequire x : path anchor->others == 1\n"
        )


class TestReadmeGrammar:
    """The grammar section of README.md shows only text the parser accepts."""

    SECTION = README.read_text().split("## Requirements grammar")[1].split("\n## ")[0]
    BULLETS = re.findall(r"^\* (.*?)(?=^\* |^$)", SECTION, re.M | re.S)
    PLACEHOLDERS = {"PRED": "in_degree >= 1", "N": "2", "K": "2"}

    def test_the_example_file_is_the_steel_vbe_set(self):
        block = self.SECTION.split("```text\n")[1].split("```")[0]
        assert parse_requirements(block) == template_steel_vbe()

    def test_every_bullet_gives_a_body_that_parses(self):
        assert len(self.BULLETS) == 7
        for bullet in self.BULLETS:
            # Code spans that start with a word and hold a space are bodies.
            bodies = [
                re.sub(r"\b(PRED|N|K)\b", lambda m: self.PLACEHOLDERS[m[1]], span)
                for span in re.findall(r"`([^`]+)`", bullet.replace("\n  ", " "))
                if " " in span and span[0].isalpha()
            ]
            assert bodies, bullet
            for body in bodies:
                anchor = "anchor\n" if re.search("anchor|others", body) else ""
                parse_requirements(f"{anchor}require r : {body}\n")
