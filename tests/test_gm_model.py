"""Finite Gauss-Manin models: pieces, windows, can, V-graded dimensions."""

from fractions import Fraction as F

import pytest

from brieskorn.engine import NonIsolatedError, problem_from_strings
from brieskorn.gm_model import (
    ElementaryGMModule,
    GMPiece,
    can_map,
    dt_cone_kernel_dim,
    from_brieskorn,
    psi_phi,
)


def model_of(text, vs, ws):
    return from_brieskorn(problem_from_strings(vs, ws, text))


class TestFromBrieskorn:
    def test_a1(self):
        m = model_of("x^2", ["x"], ["1"])
        assert [(p.alpha, p.dim) for p in m.pieces] == [(F(-1, 2), 1)]

    def test_node(self):
        m = model_of("x^2+y^2", ["x", "y"], ["1", "1"])
        assert [(p.alpha, p.dim) for p in m.pieces] == [(F(0), 1)]

    def test_cusp(self):
        m = model_of("x^2+y^3", ["x", "y"], ["3", "2"])
        assert [(p.alpha, p.dim) for p in m.pieces] == [(F(-1, 6), 1), (F(1, 6), 1)]

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
            m = from_brieskorn(p)
            for piece in m.pieces:
                assert F(-1) < piece.alpha < p.n - 1


class TestPsiPhi:
    def test_a1(self):
        psi, phi = psi_phi(model_of("x^2", ["x"], ["1"]))
        assert psi.pieces == [(F(-1, 2), 1)]
        assert phi.pieces == [(F(-1, 2), 1)]
        assert phi.dim == 1

    def test_cusp_phi_dim_is_mu(self):
        psi, phi = psi_phi(model_of("x^2+y^3", ["x", "y"], ["3", "2"]))
        assert phi.dim == 2
        assert phi.pieces == [(F(-5, 6), 1), (F(-1, 6), 1)]

    def test_empty(self):
        psi, phi = psi_phi(ElementaryGMModule([]))
        assert psi.dim == 0 and phi.dim == 0

    def test_phi_dim_equals_milnor(self):
        for text, vs, ws, mu in [
            ("x^2", ["x"], ["1"], 1),
            ("x^2+y^2", ["x", "y"], ["1", "1"], 1),
            ("x^2+y^3", ["x", "y"], ["3", "2"], 2),
            ("x^3+y^3", ["x", "y"], ["1", "1"], 4),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"], 1),
        ]:
            _psi, phi = psi_phi(model_of(text, vs, ws))
            assert phi.dim == mu

    def test_windows(self):
        m = model_of("x^3+y^3", ["x", "y"], ["1", "1"])
        psi, phi = psi_phi(m)
        assert all(F(-1) < a <= 0 for a, _d in psi.pieces)
        assert all(F(-1) <= a < 0 for a, _d in phi.pieces)


class TestCanMap:
    def test_a1_identity_on_fractional_piece(self):
        can = can_map(model_of("x^2", ["x"], ["1"]))
        assert can.shared_dim == 1 and can.surjective

    def test_only_zero_piece_vacuous(self):
        m = ElementaryGMModule([GMPiece(F(0), 1)])
        can = can_map(m)
        assert can.unipotent_target_dim == 0 and can.surjective

    def test_engine_models_surjective(self):
        for text, vs, ws in [
            ("x^2+y^2", ["x", "y"], ["1", "1"]),
            ("x^3+y^3", ["x", "y"], ["1", "1"]),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"]),
        ]:
            assert can_map(model_of(text, vs, ws)).surjective

    def test_explicit_minus_one_piece_blocks_surjectivity(self):
        m = ElementaryGMModule([GMPiece(F(0), 1), GMPiece(F(-1), 1)])
        assert not can_map(m).surjective


class TestVDim:
    def test_cusp(self):
        m = model_of("x^2+y^3", ["x", "y"], ["3", "2"])
        assert m.v_dim(F(-1, 6)) == 1
        assert m.v_dim(F(0)) == 0

    def test_partition(self):
        for m in [
            model_of("x^3+y^3", ["x", "y"], ["1", "1"]),
            model_of("x^4+y^3", ["x", "y"], ["3", "4"]),
        ]:
            alphas = {p.alpha for p in m.pieces}
            assert sum(m.v_dim(a) for a in alphas) == m.total_dimension

    def test_filtration_decreasing(self):
        m = model_of("x^4+y^3", ["x", "y"], ["3", "4"])
        alphas = sorted(p.alpha for p in m.pieces)
        dims = [m.v_filtration_dim(a) for a in alphas]
        assert dims == sorted(dims, reverse=True)
        assert m.v_filtration_dim(alphas[0]) == m.total_dimension


class TestPieces:
    def test_serialize_writes_zero_nilpotent_parts(self):
        m = ElementaryGMModule([GMPiece(F(1, 3), 2), GMPiece(F(-1, 2), 1), GMPiece(F(0), 3)])
        assert m.serialize() == {
            "pieces": [
                {"alpha": "-1/2", "dim": 1, "nilpotent": [["0"]]},
                {"alpha": "0", "dim": 3, "nilpotent": [["0", "0", "0"]] * 3},
                {"alpha": "1/3", "dim": 2, "nilpotent": [["0", "0"], ["0", "0"]]},
            ]
        }

    def test_engine_model_serializes_one_square_zero_matrix_per_piece(self):
        m = model_of("x^3+y^3", ["x", "y"], ["1", "1"])
        pieces = m.serialize()["pieces"]
        assert [p["dim"] for p in pieces] == [1, 2, 1]
        for p in pieces:
            assert p["nilpotent"] == [["0"] * p["dim"] for _ in range(p["dim"])]

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            GMPiece(F(0), 0)

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError):
            ElementaryGMModule([GMPiece(F(0), 1), GMPiece(F(0), 2)])


class TestDtCone:
    def test_engine_models_have_no_kernel(self):
        for text, vs, ws in [
            ("x^2+y^2", ["x", "y"], ["1", "1"]),
            ("x^3+y^3", ["x", "y"], ["1", "1"]),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"]),
        ]:
            assert dt_cone_kernel_dim(model_of(text, vs, ws)) == 0

    def test_integral_piece_with_a_piece_below(self):
        # N = 0: the whole piece at 1 pairs with the piece at 0, none below 0
        m = ElementaryGMModule([GMPiece(F(0), 2), GMPiece(F(1), 3), GMPiece(F(1, 2), 1)])
        assert dt_cone_kernel_dim(m) == 3
