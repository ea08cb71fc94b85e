#ifndef UGUIDE_ORACLE_EXPERT_H_
#define UGUIDE_ORACLE_EXPERT_H_

#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

/// The three expert responses of §2.1: yes, no, or "I don't know".
enum class Answer { kYes, kNo, kIdk };

const char* AnswerName(Answer answer);

/// The three question kinds of §2.1: about a cell, a tuple, or an FD.
enum class QuestionKind { kCell, kTuple, kFd };

/// \brief The oracle every interactive strategy questions.
///
/// Implementations answer the paper's three question types. The library
/// ships SimulatedExpert (ground-truth driven, for experiments); downstream
/// users supply their own implementation to put a human in the loop (see
/// examples/console_cleaning.cpp).
class Expert {
 public:
  virtual ~Expert() = default;

  /// "Is this cell erroneous?" kYes = erroneous.
  virtual Answer IsCellErroneous(const Cell& cell) = 0;

  /// "Is this tuple clean?" kYes = no erroneous cell.
  virtual Answer IsTupleClean(TupleId row) = 0;

  /// "Is this FD valid?" kYes = a dependency that should hold.
  virtual Answer IsFdValid(const Fd& fd) = 0;
};

}  // namespace uguide

#endif  // UGUIDE_ORACLE_EXPERT_H_
