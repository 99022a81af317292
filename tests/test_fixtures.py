"""Golden fixtures: the pinned cone values, recomputed by the independent
brute-force oracle and compared bit-exactly against the library.

The oracle (tests/oracle.py) enumerates dual cones by subset search and
never imports the library, so these values are frozen evidence, not an
echo of the code under test.
"""

import pathlib

from oracle import dual_vrep, fm_project, minimal_h, same_cone_from_h

from strata_cones.cone_kernel import cone_complete, cone_from_rays
from strata_cones.splitting import SplittingConfig
from strata_cones.weights import cone_D, minimal_cone
from test_splitting import stratum

CFG_A = SplittingConfig(3, (2,))
CFG_B = SplittingConfig(2, (3,))
CFG_C = SplittingConfig(2, (4,))


def test_oracle_is_independent():
    source = (pathlib.Path(__file__).parent / "oracle.py").read_text()
    assert "strata_cones" not in source
    assert "import" in source  # sanity: we read the real file


def test_cfg_a_halfspace_and_lineality():
    # generators of the stratum cone for T = {beta1}: ray (-1,3), line (3,1)
    drays, dlines = dual_vrep([(-1, 3)], [(3, 1)], 2)
    assert (drays, dlines) == ([(-1, 3)], [])

    cone = cone_D(stratum(CFG_A, (0, 1)))
    assert cone.con.ineqs == ((-1, 3),)
    assert cone.con.eqns == ()
    assert cone.gen.lines == ((3, 1),)

    raw = cone_complete(cone_from_rays([(-1, 3)], [(3, 1)], dim=2))
    assert raw == cone


def test_cfg_b_constraints():
    # optimal generators for T = {beta1}: rays (-4,0,-1), (0,0,7), line (2,1,0)
    drays, dlines = dual_vrep([(-4, 0, -1), (0, 0, 7)], [(2, 1, 0)], 3)
    assert (sorted(drays), dlines) == ([(-1, 2, 0), (-1, 2, 4)], [])

    cone = cone_D(stratum(CFG_B, (0, 1)))
    assert set(cone.con.ineqs) == {(-1, 2, 0), (-1, 2, 4)}
    assert cone.con.eqns == ()


def test_cfg_b_minimal_cone():
    # The reduced minimal cone, reached through an independent route: embed
    # the graph of the reduction map (l0 = k0 - 2k1, l2 = k2) as equations
    # in 5 variables (l0, l2, k0, k1, k2), impose the three minimal-cone
    # inequalities on the k block, project onto (l0, l2) by plain
    # Fourier-Motzkin, then minimize the description by double dualization.
    rows_ineq = [
        (0, 0, -1, 2, 0),
        (0, 0, -1, 2, 4),
        (0, 0, 1, -2, 4),
    ]
    rows_eq = [
        (1, 0, -1, 2, 0),
        (0, 1, 0, 0, -1),
    ]
    proj_i, proj_e = fm_project(rows_ineq, rows_eq, 5, keep=[0, 1])
    min_i, min_e = minimal_h(proj_i, proj_e, 2)
    assert sorted(min_i) == [(-1, 0), (1, 4)]
    assert min_e == []

    cone = minimal_cone(stratum(CFG_B, (0, 1)), "min")
    assert set(cone.con.ineqs) == {(-1, 0), (1, 4)}
    assert cone.con.eqns == ()
    assert same_cone_from_h((list(cone.con.ineqs), []), (min_i, min_e), 2)


def test_cfg_c_halfspace():
    # T = {beta0, beta1, beta2}: ray (8,0,0,-1), lines b0, b1, b2
    drays, dlines = dual_vrep(
        [(8, 0, 0, -1)],
        [(1, 0, 0, 2), (2, 1, 0, 0), (0, 2, 1, 0)], 4)
    assert (drays, dlines) == ([(2, -4, 8, -1)], [])

    cone = cone_D(stratum(CFG_C, (0, 0), (0, 1), (0, 2)))
    assert cone.con.ineqs == ((2, -4, 8, -1),)
    assert len(cone.gen.lines) == 3
