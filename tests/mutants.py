"""A register of mutants, and the runner that checks each one is killed.

A mutant is a small wrong edit of one file: an exact old text, the new
text that replaces it, and the test node ids expected to fail with it.
Tier-1 passing says nothing about whether a test that once caught a bug
still can; this does. Run it from the repository root, after tier-1:

    python tests/mutants.py [NAME ...]

With names it runs only those mutants; a name that is not registered
exits 2 and lists the registered names. With none it runs them all.

The runner copies the trees and root files the tests read into a
temporary directory and runs the mutants' tests there once unmutated.
Then it applies one mutant at a time, runs only that mutant's tests and
restores the file. It exits 1 when a mutant survives (none of its tests
fails), when an old text does not occur exactly once in its file, when
a registered test fails unmutated, or when a run writes a file of the
copy. pytest does not collect this file.

A mutation check made on a change is added here rather than described in
prose; a change that moves a mutant's code re-targets the mutant.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the tests read: the trees, and the root files pytest and they open
COPIED = (
    "src", "tests", "perfbench", "algebras", ".github",
    "conftest.py", "pyproject.toml", "README.md", "BENCHMARK.json",
)
# a mutant that loops forever is reported, not waited for
RUN_TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: Tuple[str, ...]  # node ids; at least one must fail


MUTANTS = (
    Mutant(
        "power-shifts-two-bits", "src/skewpbw/scalars.py",
        "        k >>= 1\n", "        k >>= 2\n",
        ("tests/test_scalars.py::test_cyclotomic_root_orders",),
    ),
    Mutant(
        "points-ideal-takes-any-ring", "src/skewpbw/geometry.py",
        "    require_commutative(center_pres)\n", "",
        ("tests/test_nullstellensatz.py::"
         "test_center_ring_functions_refuse_rings_that_are_not_commutative",),
    ),
    Mutant(
        "radical-membership-takes-any-ring", "src/skewpbw/nullstellensatz.py",
        "    require_commutative(f.pres)\n", "",
        ("tests/test_nullstellensatz.py::"
         "test_center_ring_functions_refuse_rings_that_are_not_commutative",),
    ),
    Mutant(
        "order-divides-each-prime-once", "src/skewpbw/nullstellensatz.py",
        "        while k % q == 0 and s ** (k // q) == field.one:\n",
        "        if k % q == 0 and s ** (k // q) == field.one:\n",
        ("tests/test_nullstellensatz.py::test_number_field_order_matches_scan",
         "tests/test_nullstellensatz.py::test_prime_field_order_matches_scan"),
    ),
    Mutant(
        "walk-skips-no-multiples", "src/skewpbw/linalg.py",
        "for t in pending.pop(w) if not any(divides(o, t) for o in leads))",
        "for t in pending.pop(w))",
        ("tests/test_nullstellensatz.py::test_contraction_gives_reduced_bases",
         "tests/test_nullstellensatz.py::test_contraction_matches_scalar_kernel"),
    ),
    Mutant(
        "overlaps-skip-scalars", "src/skewpbw/presentation.py",
        "    if not pres.sigma_all_identity:\n        r = pres.field.primitive()\n",
        "    if False:\n        r = pres.field.primitive()\n",
        ("tests/test_presentation.py::test_inconsistent_presentations_are_refused",
         "tests/test_sigma_twisted.py::test_refused_twisted_overlaps_fail_when_multiplied"),
    ),
    Mutant(
        "echelon-adds-the-pivot", "src/skewpbw/linalg.py",
        "            a = neg(a)\n", "            a = a\n",
        ("tests/test_raw_kernels.py::test_raw_nullspace_and_solve_match_scalar_elimination",),
    ),
    Mutant(
        "character-test-ignores-sigma", "src/skewpbw/geometry.py",
        "    twisted = [i for i, sigma in enumerate(pres.sigma_maps) if sigma is not None]\n",
        "    twisted = []\n",
        ("tests/test_geometry.py::test_evaluation_matches_naive_oracle",
         "tests/test_geometry.py::test_points_agree_with_saturation"),
    ),
    Mutant(
        "insertion-drops-linear-coefficient", "src/skewpbw/poly.py",
        "                _acc(out, e3, mul(a.value, k3), add, zero)\n",
        "                _acc(out, e3, k3, add, zero)\n",
        ("tests/test_poly.py::test_monomial_product_examples",
         "tests/test_poly.py::test_multiply_examples"),
    ),
    Mutant(
        "insertion-drops-constant", "src/skewpbw/poly.py",
        "            _acc(out, rest, rel.const.value, add, zero)\n",
        "            pass\n",
        ("tests/test_poly.py::test_multiply_examples",
         "tests/test_poly.py::test_monomial_product_contract"),
    ),
    Mutant(
        "chain-criterion-drops-lcm-conditions", "src/skewpbw/groebner.py",
        " and lcms[ij[0]] != gamma and lcms[ij[1]] != gamma", "",
        ("tests/test_groebner.py::test_gebauer_moller_update_matches_its_definition",
         "tests/test_groebner.py::test_chain_criterion_forms_fewer_pairs"),
    ),
    Mutant(
        "block-order-takes-any-index", "src/skewpbw/poly.py",
        "            if not 0 <= k < n:\n", "            if False:\n",
        ("tests/test_poly.py::test_block_order_refuses_an_index_outside_the_variables",),
    ),
    Mutant(
        "max-power-unbounded", "src/skewpbw/cli.py",
        '_Arg("--max-power", default=4, least=1)', '_Arg("--max-power", default=4)',
        ("tests/test_cli.py::test_out_of_range_flag_is_input_error",),
    ),
    Mutant(
        "trunc-degree-unbounded", "src/skewpbw/cli.py",
        '_Arg("--trunc-degree", least=0)', '_Arg("--trunc-degree")',
        ("tests/test_cli.py::test_out_of_range_flag_is_input_error",),
    ),
    Mutant(
        "budget-flags-swapped", "src/skewpbw/cli.py",
        "Budget(max_degree=a.budget_degree, max_pairs=a.budget_pairs)",
        "Budget(max_degree=a.budget_pairs, max_pairs=a.budget_degree)",
        ("tests/test_groebner.py::test_shared_budgets_and_results_are_immutable",
         "tests/test_cli.py::test_sandwich_without_checked_witness_is_inconclusive"),
    ),
    Mutant(
        "number-field-add-skips-gcd", "src/skewpbw/scalars.py",
        'f"    g = gcd(g, {nums})"', 'f"    g = 1"',
        ("tests/test_scalars.py::test_field_axioms_random[Q(i)]",),
    ),
    Mutant(
        "monic-keeps-heap-order", "src/skewpbw/groebner.py",
        'ordered=memo.order.kind == "deglex"', "ordered=True",
        ("tests/test_groebner.py::test_raw_remainder_is_sorted_into_deglex_under_other_orders",),
    ),
    Mutant(
        "point-ideal-skips-character-test", "src/skewpbw/geometry.py",
        "    proper = is_character(pres, Z)\n", "    proper = True\n",
        ("tests/test_geometry.py::test_is_root_examples",),
    ),
    Mutant(
        "point-ideal-stores-its-handle", "src/skewpbw/geometry.py",
        "    return IdealHandle(pres, gens, TWO_SIDED, status, DEGLEX, basis, None, note)\n",
        "    handle = IdealHandle(pres, gens, TWO_SIDED, status, DEGLEX, basis, None, note)\n"
        "    return pres._point_ideals.setdefault(Z.coords, handle)\n",
        ("tests/test_reference_cycles.py::"
         "test_no_operation_keeps_its_presentation_in_a_cycle[point_ideal]",
         "tests/test_reference_cycles.py::"
         "test_no_operation_keeps_its_presentation_in_a_cycle[is_root]"),
    ),
    Mutant(
        "product-criterion-on-every-ring", "src/skewpbw/groebner.py",
        "            if commutative and not any(map(min, leads[i], lead)):\n",
        "            if not any(map(min, leads[i], lead)):\n",
        ("tests/test_groebner.py::test_product_criterion_only_on_commutative_rings",
         "tests/test_groebner.py::test_reduced_bases_match_naive_oracle[qplane_m1.alg]"),
    ),
    Mutant(
        "monomial-right-multiples-on-every-presentation", "src/skewpbw/groebner.py",
        "            if len(g.raw) == 1 and pres.quasi_commutative:\n",
        "            if len(g.raw) == 1:\n",
        ("tests/test_groebner.py::test_monomials_are_not_normal_elsewhere",),
    ),
    Mutant(
        "monomial-pairs-on-every-presentation", "src/skewpbw/groebner.py",
        "        monomial = quasi and len(g.raw) == 1\n",
        "        monomial = len(g.raw) == 1\n",
        ("tests/test_groebner.py::test_monomials_are_not_normal_elsewhere",),
    ),
    Mutant(
        "rational-mul-skips-gcds-on-one-integer", "src/skewpbw/scalars.py",
        "    if da == 1 and db == 1:", "    if da == 1 or db == 1:",
        ("tests/test_scalars.py::test_rational_mul_and_inv_match_fraction",),
    ),
    Mutant(
        "character-test-drops-a-written-pair", "src/skewpbw/geometry.py",
        "    for (i, j), rel in pres.written.items():\n",
        "    for (i, j), rel in list(pres.written.items())[1:]:\n",
        ("tests/test_geometry.py::test_character_test_answers_per_presentation",),
    ),
    Mutant(
        "exponent-difference-unsigned", "src/skewpbw/poly.py",
        "    return tuple(x - y for x, y in zip(a, b))\n",
        "    return tuple(abs(x - y) for x, y in zip(a, b))\n",
        ("tests/test_poly.py::test_exponent_helpers_consistency",),
    ),
    Mutant(
        "center-echelon-rows-unreduced", "src/skewpbw/nullstellensatz.py",
        "    rows = [[a % m for a, m in zip(r, moduli)] for r in rows]\n",
        "    rows = [list(r) for r in rows]\n",
        ("tests/test_nullstellensatz.py::test_center_rule_matches_box_scan_on_wider_spaces",),
    ),
    Mutant(
        "center-echelon-update-unreduced", "src/skewpbw/nullstellensatz.py",
        "[(a - q * b) % m for a, b, m in zip(pivot, r, moduli)]",
        "[a - q * b for a, b in zip(pivot, r)]",
        ("tests/test_nullstellensatz.py::test_center_rule_matches_box_scan_on_wider_spaces",),
    ),
    Mutant(
        "prime-field-combination-unreduced", "src/skewpbw/scalars.py",
        "[sum(map(operator.mul, coeffs, row)) % p for row in zip(*vectors)]",
        "[sum(map(operator.mul, coeffs, row)) for row in zip(*vectors)]",
        ("tests/test_scalars.py::test_vector_kernels_match_scalar_arithmetic[gf:7]",),
    ),
    Mutant(
        "prime-field-columns-unreduced", "src/skewpbw/scalars.py",
        "            return [(a + c * x) % p for a, x in zip(acc, vectors[last])]\n",
        "            return [a + c * x for a, x in zip(acc, vectors[last])]\n",
        ("tests/test_scalars.py::test_vector_kernels_match_scalar_arithmetic[gf:7]",),
    ),
    Mutant(
        "prime-field-one-column-unreduced", "src/skewpbw/scalars.py",
        "                return [c * x % p for x in vectors[0]]\n",
        "                return [c * x for x in vectors[0]]\n",
        ("tests/test_scalars.py::test_vector_kernels_match_scalar_arithmetic[gf:7]",),
    ),
    Mutant(
        "number-field-columns-drop-the-first-vector", "src/skewpbw/scalars.py",
        "        acc = list(map(mul, repeat(coeffs[0]), vectors[0]))\n",
        "        acc = [zero] * len(vectors[0])\n",
        ("tests/test_scalars.py::test_vector_kernels_match_scalar_arithmetic[Q]",
         "tests/test_scalars.py::test_vector_kernels_match_scalar_arithmetic[Q(i)]"),
    ),
    Mutant(
        "vanishing-set-without-generators-lists-no-character",
        "src/skewpbw/geometry.py",
        "next(sums, [zero] * count)", "next(sums, [])",
        ("tests/test_geometry.py::test_vanishing_set_empty_generators",),
    ),
    Mutant(
        "readme-states-another-pin", "README.md",
        "sympy==1.14.0", "sympy==1.13.0",
        ("tests/test_readme.py::test_readme_ci_steps_match_the_workflow",),
    ),
    Mutant(
        "kept-values-survive-a-new-domain", "src/skewpbw/geometry.py",
        "positions, columns, degenerate, {})\n",
        "positions, columns, degenerate, next(iter(cache.values()), [{}])[-1])\n",
        ("tests/test_geometry.py::test_domain_change_drops_kept_values",),
    ),
    Mutant(
        "kept-values-unbounded", "src/skewpbw/geometry.py",
        "    if len(values) * max(len(positions), 1) > MAX_DOMAIN_POINTS:\n",
        "    if False:\n",
        ("tests/test_geometry.py::test_kept_values_stay_bounded",),
    ),
    Mutant(
        "report-shares-the-kept-degenerate-points", "src/skewpbw/geometry.py",
        "non_roots, list(degenerate), [])\n", "non_roots, degenerate, [])\n",
        ("tests/test_geometry.py::test_reports_share_no_list_with_the_partition",),
    ),
    Mutant(
        "central-probe-compares-a-product-with-itself", "src/skewpbw/normality.py",
        " != _mono_times_dict(pres, ej, d):",
        " != _multiply_raw(pres, f.raw, ((ej, one),), {}):",
        ("tests/test_normality.py::test_central_probe_matches_products",),
    ),
    Mutant(
        "vanishing-set-any-generator", "src/skewpbw/geometry.py",
        "vanish = [v and s == zero", "vanish = [v or s == zero",
        ("tests/test_geometry.py::test_evaluation_matches_naive_oracle",
         "tests/test_acceptance.py::test_c04_variety_property_suite"),
    ),
    Mutant(
        "center-ring-keyed-by-the-field", "src/skewpbw/nullstellensatz.py",
        "    key = (pres.field, n)\n", "    key = pres.field\n",
        ("tests/test_nullstellensatz.py::test_center_rings_are_shared_per_field_and_arity",),
    ),
    Mutant(
        "center-ring-keyed-by-the-arity", "src/skewpbw/nullstellensatz.py",
        "    key = (pres.field, n)\n", "    key = n\n",
        ("tests/test_nullstellensatz.py::test_center_rings_are_shared_per_field_and_arity",),
    ),
    Mutant(
        "point-check-skips-the-field", "src/skewpbw/geometry.py",
        "    if Z.field is not pres.field:\n", "    if False:\n",
        ("tests/test_geometry.py::test_points_of_two_fields_with_equal_raw_values_differ",),
    ),
    Mutant(
        "no-variables-have-a-monomial-of-every-degree", "src/skewpbw/poly.py",
        "        if d == 0:\n            yield ()\n", "        yield ()\n",
        ("tests/test_geometry.py::test_point_routines_on_the_space_of_no_coordinates",),
    ),
    Mutant(
        "point-takes-any-raw-value", "src/skewpbw/geometry.py",
        "            field.coerce(Scalar(field, v))\n", "            pass\n",
        ("tests/test_geometry.py::"
         "test_points_built_directly_refuse_raw_values_that_are_not_canonical",),
    ),
    Mutant(
        "coerce-takes-any-raw-value", "src/skewpbw/scalars.py",
        "            if not self.is_raw(v.value):\n", "            if False:\n",
        ("tests/test_scalars.py::"
         "test_coerce_refuses_a_scalar_whose_value_is_not_canonical",),
    ),
    Mutant(
        "relation-constants-unchecked", "src/skewpbw/presentation.py",
        "            linear[k] = field.coerce(a)\n",
        "            linear[k] = a\n",
        ("tests/test_presentation.py::test_relation_constants_are_coerced_into_the_field",),
    ),
    Mutant(
        "overlap-skip-ignores-lower-terms", "src/skewpbw/presentation.py",
        "        if not rel.is_trivial_lower():\n            triples.update(",
        "        if rel.linear:\n            triples.update(",
        ("tests/test_presentation.py::test_overlap_check_agrees_with_degree_6_scan[gf:5]",
         "tests/test_presentation.py::test_overlap_triples_keep_the_order_of_the_full_scan"),
    ),
    Mutant(
        "overlap-skip-ignores-sigma", "src/skewpbw/presentation.py",
        "        if sigma is not None:\n            others",
        "        if False:\n            others",
        ("tests/test_presentation.py::test_inconsistent_presentations_are_refused",
         "tests/test_sigma_twisted.py::test_refused_twisted_overlaps_fail_when_multiplied"),
    ),
    Mutant(
        "contraction-certifies-centrality-only", "src/skewpbw/nullstellensatz.py",
        "any(normal_form(f.raw) or not central_probe(f) for f in lifted)",
        "any(not central_probe(f) for f in lifted)",
        ("tests/test_nullstellensatz.py::"
         "test_contract_refuses_an_uncertified_element[is_member_left]",),
    ),
    Mutant(
        "inverse-memo-never-clears", "src/skewpbw/scalars.py",
        "            if len(memo) >= MAX_INVERSE_MEMO:\n                memo.clear()\n", "",
        ("tests/test_scalars.py::test_inverse_memo_never_holds_more_than_its_bound",),
    ),
    Mutant(
        "inverse-memo-keyed-by-the-numerators", "src/skewpbw/scalars.py",
        "            memo[a] = b\n", "            memo[a[:d] + (1,)] = b\n",
        ("tests/test_scalars.py::test_inverse_memo_hit_returns_the_tuple_of_its_miss",),
    ),
    Mutant(
        "inverse-tower-skips-its-first-step", "src/skewpbw/scalars.py",
        "            for maps in steps:\n", "            for maps in steps[1:]:\n",
        ("tests/test_scalars.py::"
         "test_number_field_kernel_matches_fraction_oracle[cyclotomic:120]",),
    ),
    Mutant(
        "monomial-contraction-rounds-down", "src/skewpbw/nullstellensatz.py",
        "-(-b // l)", "b // l",
        ("tests/test_nullstellensatz.py::test_contraction_matches_scalar_kernel[qplane_m1.alg]",),
    ),
    Mutant(
        "box-test-takes-any-point-set", "src/skewpbw/geometry.py",
        "len(distinct) == math.prod(map(len, sets))",
        "len(distinct) <= math.prod(map(len, sets))",
        ("tests/test_nullstellensatz.py::test_box_points_ideal_matches_elimination_fold",),
    ),
    Mutant(
        "root-merge-slot-off-by-one", "src/skewpbw/geometry.py",
        "        roots += degenerate[done : k - j]\n",
        "        roots += degenerate[done : k - j + 1]\n",
        ("tests/test_geometry.py::test_roots_merge_in_domain_order[gf7space]",),
    ),
    Mutant(
        "walk-climbs-wrong-column", "src/skewpbw/geometry.py",
        "vals = values[m] = product(vals, columns[i])\n",
        "vals = values[m] = product(vals, columns[i - 1])\n",
        ("tests/test_geometry.py::test_value_walk_matches_naive_evaluation[gf7space]",
         "tests/test_geometry.py::test_value_walk_matches_naive_evaluation[dispin]"),
    ),
    Mutant(
        "cert-minus-keeps-the-sign", "src/skewpbw/groebner.py",
        "_cert_add(out, memo.pres, [(e, neg(v)) for e, v in q.items()], c)",
        "_cert_add(out, memo.pres, q.items(), c)",
        ("tests/test_groebner.py::test_gb_soundness_certificates[witten]",
         "tests/test_groebner.py::test_printed_certificates_are_pinned"),
    ),
    Mutant(
        "cert-right-multiple-keeps-q", "src/skewpbw/groebner.py",
        "(i, multiply(q, w)): p for", "(i, q): p for",
        ("tests/test_groebner.py::test_saturation_two_sided_certificates",
         "tests/test_groebner.py::test_printed_certificates_are_pinned"),
    ),
    Mutant(
        "presentation-keeps-any-relation-key", "src/skewpbw/presentation.py",
        "            if pair not in rels or not all(type(k) is int for k in pair):\n",
        "            if False:\n",
        ("tests/test_presentation.py::test_relation_keys_outside_the_pairs_are_refused",),
    ),
    Mutant(
        "exponent-takes-any-entries", "src/skewpbw/poly.py",
        " or len(e) != pres.n or not all(type(a) is int and a >= 0 for a in e):", ":",
        ("tests/test_poly.py::test_exponents_outside_the_monomials_are_refused",),
    ),
    Mutant(
        "polynomial-keeps-repeated-exponents", "src/skewpbw/poly.py",
        "        if len(dict(pairs)) != len(pairs):\n", "        if False:\n",
        ("tests/test_poly.py::test_repeated_exponents_are_refused",),
    ),
    Mutant(
        "monomial-order-takes-any-kind", "src/skewpbw/poly.py",
        '        elif kind != "block":\n', "        elif False:\n",
        ("tests/test_poly.py::test_unknown_monomial_orders_are_refused",),
    ),
    Mutant(
        "galois-maps-are-the-identity", "src/skewpbw/scalars.py",
        "                for t, c in rows[j * k % m]:\n", "                for t, c in rows[j]:\n",
        ("tests/test_metamorphic.py::test_conjugate_inputs_give_conjugate_answers",),
    ),
    Mutant(
        "degree-skip-reports-proper", "src/skewpbw/groebner.py",
        "    return UNKNOWN if skipped else PROPER, list(", "    return PROPER, list(",
        ("tests/test_metamorphic.py::test_a_finished_basis_is_the_one_a_larger_budget_gives",),
    ),
    Mutant(
        "closed-pipe-raises", "src/skewpbw/cli.py",
        "    except BrokenPipeError:\n", "    except ZeroDivisionError:\n",
        ("tests/test_cli.py::test_closed_pipe_exits_one_without_a_traceback",),
    ),
    Mutant(
        "empty-vars-line-declares-nothing", "src/skewpbw/presentation.py",
        "            if value and not names:", "            if not names:",
        ("tests/test_presentation.py::test_the_space_of_no_variables_round_trips",),
    ),
    Mutant(
        "tier1-step-runs-on-one-python", ".github/workflows/tier1.yml",
        "      - name: Tier-1 tests\n",
        "      - name: Tier-1 tests\n        if: matrix.python-version == '3.11'\n",
        ("tests/test_readme.py::test_every_tier1_job_installs_every_pinned_tool",),
    ),
    Mutant(
        "cert-keeps-zero-parts", "src/skewpbw/groebner.py",
        "    return {key: p for key, p in out.items() if p}\n", "    return out\n",
        ("tests/test_groebner.py::test_tracked_and_untracked_computations_agree[qspace3.alg]",
         "tests/test_groebner.py::test_printed_certificates_are_pinned"),
    ),
    Mutant(
        "radical-status-reads-unknown-as-no", "src/skewpbw/nullstellensatz.py",
        "    return None if status == UNKNOWN else status == UNIT\n",
        "    return status == UNIT\n",
        ("tests/test_nullstellensatz.py::test_radical_status_matches_the_left_basis_status[gf:5]",
         "tests/test_nullstellensatz.py::test_radical_membership_examples",
         "tests/test_nullstellensatz.py::test_radical_membership_defaults_to_the_default_budget"),
    ),
    Mutant(
        "evaluate-drops-the-lead-term", "src/skewpbw/geometry.py",
        "    for e, c in f.raw:\n        acc = add(acc, mul(c, values[e]))\n",
        "    for e, c in f.raw[1:]:\n        acc = add(acc, mul(c, values[e]))\n",
        ("tests/test_geometry.py::test_evaluation_matches_naive_oracle[gf7_qspace3]",
         "tests/test_geometry.py::test_evaluation_matches_naive_oracle[cyclotomic5_plane]"),
    ),
    Mutant(
        "test-extra-drops-a-pin", "pyproject.toml",
        '"sympy==1.14.0"', '"sympy"',
        ("tests/test_readme.py::test_test_extra_pins_what_ci_and_readme_pin",),
    ),
)


def _snapshot(root: str) -> dict:
    """{path: sha256} of every file under root but caches and bytecode."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in ("__pycache__", ".hypothesis")]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache", "out")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def _pytest(copy: str, tests) -> Tuple[Optional[int], str]:
    """pytest's exit code on tests in the copy, stopping at the first
    failure, and its last lines; None for a run past RUN_TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            command + list(tests), cwd=copy, env=env, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired:
        return None, f"ran past {RUN_TIMEOUT_S} s"
    return done.returncode, "\n".join(done.stdout.strip().splitlines()[-3:])


def _survival(copy: str, mutant: Mutant) -> str:
    """Apply the mutant in the copy, run its tests and restore the file;
    how the mutant survived, or "" when it was killed."""
    path = os.path.join(copy, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    try:
        code, tail = _pytest(copy, mutant.tests)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    # pytest exits 1 when a test failed; 0 is a survivor, and anything else
    # a run that reached no verdict (a missing node id, say)
    return "" if code == 1 else f"pytest exited {code}, not 1:\n{tail}"


def main(names) -> int:
    registered = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in registered]
    if unknown:
        print(f"no mutant named {', '.join(unknown)}; registered:\n" + "\n".join(registered))
        return 2
    mutants = [registered[name] for name in dict.fromkeys(names)] if names else MUTANTS
    failures = []
    for m in mutants:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            failures.append(f"{m.name}: its old text occurs {count} times in {m.path}")
    if failures:  # re-target these first: nothing is run
        print("\n".join(failures))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as copy:
        _copy_tree(copy)
        before = _snapshot(copy)

        def written() -> str:
            after = _snapshot(copy)
            paths = [p for p in before if after.get(p) != before[p]]
            return f"the run wrote {', '.join(paths)}" if paths else ""

        # a registered test that fails on the unmutated tree kills anything
        code, tail = _pytest(copy, dict.fromkeys(t for m in mutants for t in m.tests))
        ran = "" if code == 0 else f"pytest exited {code}:\n{tail}"
        problem = "\n".join(filter(None, (ran, written())))
        if problem:
            print(f"the registered tests do not pass unmutated:\n{problem}")
            return 1
        for m in mutants:
            problem = "\n".join(filter(None, (_survival(copy, m), written())))
            print(f"{m.name}: {'FAILED ' + problem if problem else 'killed'}", flush=True)
            if problem:
                failures.append(m.name)
    print(f"{len(mutants) - len(failures)} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
