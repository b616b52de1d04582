"""Problem-file schema: strict validation, positional errors, round-trip."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linform import (
    AugmentedForm,
    LinearForm,
    PeriodicSet,
    ProblemFormatError,
    TargetFunction,
    parse_problem,
    problem_to_dict,
)
from linform.problems import ProblemFile, parse_problem_dict

FULL = {
    "u": [1],
    "v": 1,
    "A": [[0, 1]],
    "B": {"modulus": 2, "residues": [0]},
    "t": 1,
}


def parse(document) -> ProblemFile:
    return parse_problem(json.dumps(document))


class TestValidDocuments:
    def test_full_document(self):
        problem = parse(FULL)
        assert problem.form.coeffs == (1,)
        assert problem.augmented.v == 1
        assert problem.domain.sets == ((0, 1),)
        assert problem.periodic == PeriodicSet(2, (0,))
        assert problem.t == 1
        assert problem.target is None

    def test_minimal_document(self):
        problem = parse({"u": [2, -3], "A": [[0, 1], [5]]})
        assert problem.form.coeffs == (2, -3)
        assert problem.domain.sets == ((0, 1), (5,))
        assert problem.augmented is None
        assert problem.augmented_form is not None
        with pytest.raises(ProblemFormatError, match='needs field "v"'):
            problem.augmented_form()

    def test_augmented_form_is_the_one_parsed(self):
        problem = parse(FULL)
        assert problem.augmented_form() is problem.augmented
        assert problem.augmented == AugmentedForm(LinearForm((1,)), 1)

    def test_elements_are_sorted(self):
        assert parse({"u": [1], "A": [[3, 1, 2]]}).domain.sets == ((1, 2, 3),)

    def test_target_with_overrides(self):
        problem = parse({"u": [1], "A": [[0]], "f": {"default": 1, "overrides": {"-2": 0}}})
        assert problem.target == TargetFunction(default=1, overrides={-2: 0})

    def test_unbounded_default_with_override(self):
        problem = parse({"u": [1], "A": [[0]], "f": {"default": "inf", "overrides": {"0": 1}}})
        assert problem.target.default is None
        assert problem.target.overrides == {0: 1}

    def test_null_default_is_unbounded(self):
        problem = parse({"u": [1], "A": [[0]], "f": {"default": None, "overrides": {"0": 1}}})
        assert problem.target.default is None


class TestRejectedDocuments:
    def test_malformed_json(self):
        with pytest.raises(ProblemFormatError, match="malformed JSON"):
            parse_problem("{not json")

    def test_non_object(self):
        with pytest.raises(ProblemFormatError, match="must be a JSON object"):
            parse_problem("[1, 2]")

    def test_unknown_field(self):
        with pytest.raises(ProblemFormatError, match='unknown field "w"'):
            parse({**FULL, "w": 1})

    def test_zero_coefficient(self):
        with pytest.raises(ProblemFormatError, match=r"zero coefficient u\[0\]"):
            parse({"u": [0], "A": [[0]]})

    def test_missing_u(self):
        with pytest.raises(ProblemFormatError, match='"u" must be a nonempty array'):
            parse({"A": [[0]]})

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(ProblemFormatError, match=r"u\[0\] must be an integer"):
            parse({"u": [True], "A": [[0]]})

    def test_duplicate_set_element(self):
        with pytest.raises(ProblemFormatError, match=r"duplicate element in A\[0\]"):
            parse({"u": [1], "A": [[1, 1]]})

    def test_empty_set(self):
        with pytest.raises(ProblemFormatError, match=r"A\[1\] must be a nonempty array"):
            parse({"u": [1, 1], "A": [[0], []]})

    def test_set_count_mismatch(self):
        with pytest.raises(ProblemFormatError, match='holds 1 sets but "u" has 2'):
            parse({"u": [1, 2], "A": [[0]]})

    def test_zero_v(self):
        with pytest.raises(ProblemFormatError, match="zero coefficient v"):
            parse({"u": [1], "v": 0, "A": [[0]]})

    def test_residue_out_of_range(self):
        with pytest.raises(ProblemFormatError, match="residue out of range in B: 2"):
            parse({"u": [1], "A": [[0]], "B": {"modulus": 2, "residues": [2]}})

    def test_negative_residue(self):
        with pytest.raises(ProblemFormatError, match="residue out of range in B: -1"):
            parse({"u": [1], "A": [[0]], "B": {"modulus": 2, "residues": [-1]}})

    def test_duplicate_residue(self):
        with pytest.raises(ProblemFormatError, match="duplicate residue in B"):
            parse({"u": [1], "A": [[0]], "B": {"modulus": 4, "residues": [1, 1]}})

    def test_b_extra_field(self):
        with pytest.raises(ProblemFormatError, match='"B" must be an object'):
            parse({"u": [1], "A": [[0]], "B": {"modulus": 2, "residues": [0], "x": 1}})

    def test_nonpositive_modulus(self):
        with pytest.raises(ProblemFormatError, match="B.modulus must be a positive integer"):
            parse({"u": [1], "A": [[0]], "B": {"modulus": 0, "residues": []}})

    def test_negative_t(self):
        with pytest.raises(ProblemFormatError, match="t must be a nonnegative integer"):
            parse({"u": [1], "A": [[0]], "t": -1})

    def test_out_of_range_integer(self):
        with pytest.raises(ProblemFormatError, match="outside the signed 64-bit range"):
            parse({"u": [2**63], "A": [[0]]})

    def test_constant_unbounded_target(self):
        with pytest.raises(ProblemFormatError, match='must override at least one value'):
            parse({"u": [1], "A": [[0]], "f": {"default": "inf"}})

    def test_target_needs_default(self):
        with pytest.raises(ProblemFormatError, match='"f" needs a "default"'):
            parse({"u": [1], "A": [[0]], "f": {"overrides": {"0": 1}}})

    def test_override_key_must_spell_integer(self):
        with pytest.raises(ProblemFormatError, match='key "x" must spell an integer'):
            parse({"u": [1], "A": [[0]], "f": {"default": 1, "overrides": {"x": 1}}})

    @pytest.mark.parametrize("key", ["1_0", " 3", "+3", "03", "-0"])
    def test_override_key_must_be_canonical(self, key):
        # int() reads each of these as a number, but printing it back would
        # give a different key
        with pytest.raises(ProblemFormatError, match=re.escape(f'key "{key}" must spell an integer')):
            parse({"u": [1], "A": [[0]], "f": {"default": 1, "overrides": {key: 1}}})

    def test_colliding_override_keys_rejected(self):
        with pytest.raises(ProblemFormatError, match='key "03"'):
            parse({"u": [1], "A": [[0]], "f": {"default": 1, "overrides": {"3": 1, "03": 2}}})

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"u": [1], "A": [[0, 1]], "t": 1, "t": 2}', "t"),
            ('{"u": [1], "A": [[0]], "B": {"modulus": 2, "residues": [0], "modulus": 4}}', "modulus"),
            ('{"u": [1], "A": [[0]], "f": {"default": 1, "default": 2}}', "default"),
            ('{"u": [1], "A": [[0]], "f": {"default": 1, "overrides": {"3": 1, "3": 2}}}', "3"),
        ],
        ids=["top level", "B", "f", "f.overrides"],
    )
    def test_duplicate_key_rejected(self, text, key):
        # json.loads would keep the last value, so the file would say two things
        with pytest.raises(ProblemFormatError, match=re.escape(f'duplicate key "{key}"')):
            parse_problem(text)

    def test_negative_override(self):
        with pytest.raises(ProblemFormatError, match=r"f.overrides\[0\] must be nonnegative"):
            parse({"u": [1], "A": [[0]], "f": {"default": 1, "overrides": {"0": -1}}})


class TestRoundTrip:
    def test_full_document_round_trips(self):
        problem = parse(FULL)
        assert parse_problem_dict(problem_to_dict(problem)) == problem

    def test_unbounded_target_round_trips(self):
        document = {"u": [1], "A": [[0]], "f": {"default": "inf", "overrides": {"3": 2}}}
        problem = parse(document)
        emitted = problem_to_dict(problem)
        assert emitted["f"]["default"] == "inf"
        assert parse_problem_dict(emitted) == problem

    @given(
        st.lists(
            st.integers(min_value=-5, max_value=5).filter(lambda u: u != 0),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
    )
    def test_random_documents_round_trip(self, u, v, t):
        sets = [[i, i + 1] for i in range(len(u))]
        problem = parse({"u": u, "A": sets, "v": v, "t": t})
        assert parse_problem_dict(problem_to_dict(problem)) == problem
