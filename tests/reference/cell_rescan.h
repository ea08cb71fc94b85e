#ifndef UGUIDE_TESTS_REFERENCE_CELL_RESCAN_H_
#define UGUIDE_TESTS_REFERENCE_CELL_RESCAN_H_

/// \file
/// \brief The full-rescan cell strategies: CellQ-HS, CellQ-Greedy,
/// CellQ-SUMS and CellQ-Oracle as Algorithms 2-4 state them, rescanning
/// every cell for each question and running Estimate-Confidence cell by
/// cell. The behavioral reference the library's class selector and
/// class-indexed SUMS must match question for question (DESIGN.md §9.4,
/// §14.2), and the baseline their benchmarks measure against. Test and
/// benchmark code only.
///
/// Each strategy reports under the library strategy's name, so a report
/// of either is directly comparable. The selection and answer logic is a
/// separate copy: nothing here calls into src/core/cell_strategies.cc
/// beyond its options struct.

#include <memory>

#include "core/cell_strategies.h"
#include "core/strategy.h"

namespace uguide {

/// CellQ-HS by linear rescan: each round asks the askable cell with the
/// smallest weight / active degree, ties toward the lowest CellId.
std::unique_ptr<Strategy> MakeRescanCellQHittingSet(
    const CellStrategyOptions& options = {});

/// CellQ-Greedy by linear rescan: each round asks the askable cell with
/// the highest active degree, ties toward the lowest CellId.
std::unique_ptr<Strategy> MakeRescanCellQGreedy(
    const CellStrategyOptions& options = {});

/// CellQ-SUMS with the per-cell Estimate-Confidence fixpoint (Algorithm 4)
/// and per-cell selection scans.
std::unique_ptr<Strategy> MakeRescanCellQSums(
    const CellStrategyOptions& options = {});

/// CellQ-Oracle by linear rescan: each round asks the askable cell with
/// the highest positive payoff — a clean cell's active false FDs, a true
/// violation's active unaccepted true FDs — ties toward the lowest CellId.
std::unique_ptr<Strategy> MakeRescanCellQOracle(
    const CellStrategyOptions& options = {});

}  // namespace uguide

#endif  // UGUIDE_TESTS_REFERENCE_CELL_RESCAN_H_
