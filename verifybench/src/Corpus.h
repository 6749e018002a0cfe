//===- Corpus.h - Benchmark programs with independent known answers -*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs each workload verifies, each with a known answer that does
/// not come from the verifier:
///
///  * the case studies, answered by data/expected.txt (hand-written);
///  * spliced case-study mutants, answered by data/mutants.txt
///    (hand-written, from the verifier test suite's ExamplesMutated cases);
///  * ProgramGen mutants with an injected falsifiable assertion, frozen in
///    data/generated.txt, each confirmed at load by the interpreter: it
///    must find a concrete original-semantics run from a state inside the
///    requires box that ends in wr.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_CORPUS_H
#define VERIFYBENCH_CORPUS_H

#include <string>
#include <vector>

namespace relax {
namespace bench {

enum class Answer { Verified, Refuted };

struct CorpusProgram {
  std::string Name;
  std::string Source;
  Answer Want = Answer::Verified;
};

/// Where the corpus inputs live (all inside the checkout).
struct CorpusPaths {
  std::string ExamplesDir; ///< examples/programs
  std::string DataDir;     ///< verifybench/data
};

/// The case studies with their hand-written answers.
bool loadCaseStudies(const CorpusPaths &P, std::vector<CorpusProgram> &Out,
                     std::string &Error);

/// The spliced mutants with their hand-written answers.
bool loadSplicedMutants(const CorpusPaths &P, std::vector<CorpusProgram> &Out,
                        std::string &Error);

/// Counts of the generated-mutant filter, from the data file's header.
struct MutantDraws {
  unsigned Drawn = 0;
  unsigned Dropped = 0; ///< no concrete failing run found (vacuous)
};

/// The frozen generated mutants; fails when the interpreter finds no
/// concrete failing run for one of them.
bool loadGeneratedMutants(const CorpusPaths &P,
                          std::vector<CorpusProgram> &Out, MutantDraws &Draws,
                          std::string &Error);

} // namespace bench
} // namespace relax

#endif // VERIFYBENCH_CORPUS_H
