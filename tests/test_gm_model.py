"""Gauss-Manin data as functions of the exponent multiset: pieces, windows, can."""

from fractions import Fraction as F

import pytest
from oracles import problem_from_strings

from brieskorn.engine import NonIsolatedError, milnor_number
from brieskorn.gm_model import can_surjective, from_brieskorn, psi_phi, serialize


def model_of(text, vs, ws):
    return from_brieskorn(problem_from_strings(vs, ws, text))


class TestFromBrieskorn:
    def test_a1(self):
        assert model_of("x^2", ["x"], ["1"]) == [(F(-1, 2), 1)]

    def test_node(self):
        assert model_of("x^2+y^2", ["x", "y"], ["1", "1"]) == [(F(0), 1)]

    def test_cusp(self):
        assert model_of("x^2+y^3", ["x", "y"], ["3", "2"]) == [(F(-1, 6), 1), (F(1, 6), 1)]

    def test_nonisolated_rejected(self):
        p = problem_from_strings(["x", "y"], ["1", "1"], "x^2*y^2")
        with pytest.raises(NonIsolatedError):
            from_brieskorn(p)

    def test_exponent_window(self):
        for text, vs, ws in [
            ("x^3+y^3", ["x", "y"], ["1", "1"]),
            ("x^4+y^3", ["x", "y"], ["3", "4"]),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"]),
        ]:
            p = problem_from_strings(vs, ws, text)
            for alpha, _dim in from_brieskorn(p):
                assert F(-1) < alpha < p.nvars - 1

    def test_dims_sum_to_milnor_number(self):
        for text, vs, ws in [
            ("x^3+y^3", ["x", "y"], ["1", "1"]),
            ("x^4+y^3", ["x", "y"], ["3", "4"]),
        ]:
            p = problem_from_strings(vs, ws, text)
            pieces = from_brieskorn(p)
            assert len({a for a, _d in pieces}) == len(pieces)
            assert sum(d for _a, d in pieces) == milnor_number(p)


class TestPsiPhi:
    def test_a1(self):
        psi, phi = psi_phi(model_of("x^2", ["x"], ["1"]))
        assert psi == [(F(-1, 2), 1)]
        assert phi == [(F(-1, 2), 1)]

    def test_cusp_phi_dim_is_mu(self):
        psi, phi = psi_phi(model_of("x^2+y^3", ["x", "y"], ["3", "2"]))
        assert phi == [(F(-5, 6), 1), (F(-1, 6), 1)]
        assert sum(d for _a, d in phi) == 2

    def test_empty(self):
        assert psi_phi([]) == ([], [])

    def test_phi_dim_equals_milnor(self):
        for text, vs, ws, mu in [
            ("x^2", ["x"], ["1"], 1),
            ("x^2+y^2", ["x", "y"], ["1", "1"], 1),
            ("x^2+y^3", ["x", "y"], ["3", "2"], 2),
            ("x^3+y^3", ["x", "y"], ["1", "1"], 4),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"], 1),
        ]:
            _psi, phi = psi_phi(model_of(text, vs, ws))
            assert sum(d for _a, d in phi) == mu

    def test_windows(self):
        psi, phi = psi_phi(model_of("x^3+y^3", ["x", "y"], ["1", "1"]))
        assert all(F(-1) < a <= 0 for a, _d in psi)
        assert all(F(-1) <= a < 0 for a, _d in phi)

    def test_congruent_exponents_merge(self):
        # -1/2, 1/2 and 3/2 agree mod 1: one window piece carrying all their dims
        psi, phi = psi_phi([(F(-1, 2), 1), (F(1, 3), 4), (F(1, 2), 2), (F(3, 2), 3)])
        assert psi == [(F(-2, 3), 4), (F(-1, 2), 6)]
        assert phi == [(F(-2, 3), 4), (F(-1, 2), 6)]

    def test_integral_exponents_land_on_the_closed_ends(self):
        # the unipotent part: psi keeps 0 in (-1, 0], phi keeps -1 in [-1, 0)
        psi, phi = psi_phi([(F(-1), 1), (F(0), 2), (F(1), 3)])
        assert psi == [(F(0), 6)]
        assert phi == [(F(-1), 6)]


class TestCanMap:
    def test_a1_identity_on_fractional_piece(self):
        assert can_surjective(model_of("x^2", ["x"], ["1"]))

    def test_only_zero_piece_vacuous(self):
        assert can_surjective([(F(0), 1)])

    def test_engine_models_surjective(self):
        for text, vs, ws in [
            ("x^2+y^2", ["x", "y"], ["1", "1"]),
            ("x^3+y^3", ["x", "y"], ["1", "1"]),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"]),
        ]:
            assert can_surjective(model_of(text, vs, ws))

    def test_explicit_minus_one_piece_blocks_surjectivity(self):
        assert not can_surjective([(F(-1), 1), (F(0), 1)])


class TestPieces:
    def test_serialize_writes_zero_nilpotent_parts(self):
        assert serialize([(F(-1, 2), 1), (F(0), 3), (F(1, 3), 2)]) == [
            {"alpha": "-1/2", "dim": 1, "nilpotent": [["0"]]},
            {"alpha": "0", "dim": 3, "nilpotent": [["0", "0", "0"]] * 3},
            {"alpha": "1/3", "dim": 2, "nilpotent": [["0", "0"], ["0", "0"]]},
        ]

    def test_engine_model_serializes_one_square_zero_matrix_per_piece(self):
        pieces = serialize(model_of("x^3+y^3", ["x", "y"], ["1", "1"]))
        assert [p["dim"] for p in pieces] == [1, 2, 1]
        for p in pieces:
            assert p["nilpotent"] == [["0"] * p["dim"] for _ in range(p["dim"])]
