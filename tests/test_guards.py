"""Input guards of the library, one case per guard, each with its error class."""

import pytest

from twistcodes.codes import (
    LinearCode,
    constacyclic_shift,
    generator_poly,
    intersection_dim,
    is_lambda_constacyclic,
)
from twistcodes.errors import (
    CtxMismatch,
    DegreeMismatch,
    ExponentOutOfRange,
    FieldMismatch,
    LengthMismatch,
    NonPrime,
    ZeroLambda,
)
from twistcodes.gf import GF, FieldSpec, norm_image_classes
from twistcodes.poly import Poly, factor_xn_minus_lambda
from twistcodes.talg import (
    AlgebraCtx,
    CocycleTable,
    apply_isometry,
    equivalence_witness,
    k_galois_form,
)

F3, F5 = GF(3), GF(5)
A, B = AlgebraCtx(F3, 4, 1), AlgebraCtx(F3, 4, 2)


@pytest.mark.parametrize(
    "error,call",
    [
        # codes
        pytest.param(LengthMismatch, lambda: LinearCode.from_vectors(F3, 3, [[F3.one] * 2]),
                     id="from_vectors-length"),
        pytest.param(FieldMismatch, lambda: LinearCode.from_vectors(F3, 2, [[F3.one, F5.one]]),
                     id="from_vectors-field"),
        pytest.param(LengthMismatch, lambda: LinearCode.full(F3, 3).contains([F3.one] * 2),
                     id="contains-length"),
        pytest.param(ZeroLambda, lambda: constacyclic_shift(F3.zero, [F3.one]),
                     id="shift-zero-lambda"),
        pytest.param(ZeroLambda, lambda: is_lambda_constacyclic(LinearCode.full(F3, 3), F3.zero),
                     id="constacyclic-zero-lambda"),
        pytest.param(FieldMismatch, lambda: generator_poly(LinearCode.full(F5, 4), A),
                     id="generator_poly-field"),
        pytest.param(FieldMismatch,
                     lambda: intersection_dim(LinearCode.full(F3, 3), LinearCode.full(F5, 3)),
                     id="intersection_dim-field"),
        # talg
        pytest.param(ExponentOutOfRange, lambda: A.basis(4), id="basis-n"),
        pytest.param(CtxMismatch, lambda: A.one + B.one, id="add-ctx"),
        pytest.param(CtxMismatch, lambda: k_galois_form(A.one, B.one, 0), id="form-ctx"),
        pytest.param(LengthMismatch, lambda: CocycleTable(F3, [[1, 1], [1]]), id="cocycle-square"),
        pytest.param(ZeroLambda, lambda: equivalence_witness(F3, 4, F3.one, F3.zero),
                     id="witness-zero-unit"),
        pytest.param(CtxMismatch, lambda: apply_isometry(A.one, F3.one, AlgebraCtx(F3, 5, 1)),
                     id="isometry-n"),
        # gf
        pytest.param(NonPrime, lambda: FieldSpec(65537), id="prime-bound"),
        pytest.param(DegreeMismatch, lambda: FieldSpec(3, 0), id="degree-zero"),
        pytest.param(ValueError, lambda: F3.from_index(F3.q), id="index-range"),
        pytest.param(FieldMismatch, lambda: F3.element(F5.one), id="element-field"),
        pytest.param(NonPrime, lambda: GF(1), id="gf-one"),
        pytest.param(ValueError, lambda: norm_image_classes(F3, 0), id="norm-n-zero"),
        # poly
        pytest.param(FieldMismatch, lambda: Poly.one(F3) + Poly.one(F5), id="poly-add-field"),
        pytest.param(ZeroDivisionError, lambda: divmod(Poly.x(F3), Poly.zero(F3)),
                     id="divmod-zero"),
        pytest.param(ValueError, lambda: Poly.x(F3).pow_mod(-1, Poly.xn_minus(F3, 2, F3.one)),
                     id="pow_mod-negative"),
        pytest.param(ValueError, lambda: factor_xn_minus_lambda(F3, 0, F3.one), id="factor-n-zero"),
    ],
)
def test_guard_raises(error, call):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error  # the named class itself, not only a subclass of it
