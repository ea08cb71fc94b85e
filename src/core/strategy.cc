#include "core/strategy.h"

namespace uguide {

Answer AskQuestion(Expert& expert, const Question& question) {
  switch (question.kind) {
    case QuestionKind::kCell:
      return expert.IsCellErroneous(question.cell);
    case QuestionKind::kTuple:
      return expert.IsTupleClean(question.row);
    case QuestionKind::kFd:
      return expert.IsFdValid(question.fd);
  }
  return Answer::kIdk;
}

StrategyResult Strategy::Run(const QuestionContext& context) {
  UGUIDE_CHECK(context.expert != nullptr)
      << "Strategy::Run requires QuestionContext::expert";
  std::unique_ptr<StrategyRun> run = Start(context);
  while (std::optional<Question> question = run->Next()) {
    run->Apply(AskQuestion(*context.expert, *question));
  }
  return run->Finish();
}

}  // namespace uguide
