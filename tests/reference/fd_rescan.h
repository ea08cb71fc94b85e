#ifndef UGUIDE_TESTS_REFERENCE_FD_RESCAN_H_
#define UGUIDE_TESTS_REFERENCE_FD_RESCAN_H_

/// \file
/// \brief The per-run FD strategies: FDQ-BMC, FDQ-Greedy and FDQ-Oracle
/// as Algorithm 5 and its §7.1 baselines state them, building the merged
/// non-minimal questions through the engine on every run and recounting
/// every question's uncovered cells after each accepted FD. The
/// behavioural reference the library's shared merged-question pool and
/// incremental coverage counts must match question for question
/// (DESIGN.md §5, §14.3), and the baseline their benchmarks measure
/// against. Test and benchmark code only.
///
/// Each strategy reports under the library strategy's name, so a report
/// of either is directly comparable. The question build and selection
/// loop are a separate copy: nothing here calls into
/// src/core/fd_strategies.cc beyond its options struct.

#include <memory>

#include "core/fd_strategies.h"
#include "core/strategy.h"

namespace uguide {

/// FDQ-BMC: (accuracy prior x uncovered cells) / cost, ties toward the
/// first question (candidates in FdId order, then merged pairs).
std::unique_ptr<Strategy> MakeRescanFdQBudgetedMaxCoverage(
    const FdStrategyOptions& options = {});

/// FDQ-Greedy: the most uncovered cells among the minimal candidates.
std::unique_ptr<Strategy> MakeRescanFdQGreedy(
    const FdStrategyOptions& options = {});

/// FDQ-Oracle: uncovered cells / cost among the questions the true FD set
/// implies.
std::unique_ptr<Strategy> MakeRescanFdQOracle(
    const FdStrategyOptions& options = {});

}  // namespace uguide

#endif  // UGUIDE_TESTS_REFERENCE_FD_RESCAN_H_
