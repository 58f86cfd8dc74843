#ifndef MONDET_BASE_SCC_H_
#define MONDET_BASE_SCC_H_

#include <cstddef>
#include <vector>

namespace mondet {

/// Iterative Tarjan SCC over a dense adjacency list. Components receive
/// ids in pop order, so every component a node depends on (reaches) has a
/// smaller id than the node's own component; processing components in
/// ascending id order therefore visits dependencies first. Its one caller
/// is Stratify (datalog/strata.h), the stratification the evaluator, the
/// dataflow analyses and the fragment checks all read.
std::vector<int> SccIds(size_t n, const std::vector<std::vector<int>>& adj,
                        int* num_sccs);

}  // namespace mondet

#endif  // MONDET_BASE_SCC_H_
