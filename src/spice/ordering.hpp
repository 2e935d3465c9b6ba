#pragma once
// Fill-reducing, pivot-stable column ordering for the MNA Jacobian
// (DESIGN.md §10).
//
// SparseLu eliminates columns in the order it is given.  Netlist order (PE
// nodes first, then every branch unknown) makes large arrays fill in badly,
// so MnaSystem permutes its matrix symmetrically by a minimum-degree order
// of the symmetrised pattern before factoring.  Plain minimum degree,
// however, moves op-amp / comparator branch columns ahead of the input
// nodes they sense; their candidate pivot rows are then op-amp inputs whose
// magnitudes swap as the tanh gain saturates, and refactor() keeps falling
// back to a full factor.  The ordering therefore carries one precedence
// constraint: every guarded branch column is eliminated after each op-amp
// input node within two hops of it.

#include <vector>

namespace mda::spice {

/// Minimum-degree elimination order of the n x n pattern given as triplets
/// (rows[k], cols[k]) — duplicates allowed, diagonal ignored, symmetrised
/// (an entry at (r, c) links r and c).  `guarded` lists the branch unknowns
/// of nonlinear branch devices.  For each guarded unknown b, its input nodes
/// are the columns of row b minus b itself and minus the rows of column b
/// (the output node); every input node of any guarded unknown that lies
/// within two hops of b in the symmetrised graph is ordered before b.
///
/// Among eligible unknowns the one of least current degree in the
/// elimination graph goes next, ties to the lowest index, so the result is
/// a pure function of (n, pattern, guarded).  Returns perm with perm[k] =
/// unknown eliminated k-th.
[[nodiscard]] std::vector<int> pivot_stable_min_degree(
    int n, const std::vector<int>& rows, const std::vector<int>& cols,
    const std::vector<int>& guarded);

}  // namespace mda::spice
