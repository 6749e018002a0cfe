//===- Corpus.cpp - Benchmark programs with independent known answers -----===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "eval/Interp.h"
#include "eval/Oracle.h"
#include "parser/Parser.h"
#include "sema/Sema.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace relax;
using namespace relax::bench;

namespace {

bool slurp(const std::string &Path, std::string &Out, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool parseAnswer(const std::string &Word, Answer &A) {
  if (Word == "verified")
    A = Answer::Verified;
  else if (Word == "refuted")
    A = Answer::Refuted;
  else
    return false;
  return true;
}

/// Data-file lines without comments and blanks.
std::vector<std::string> dataLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    if (!L.empty() && L[0] != '#')
      Lines.push_back(L);
  return Lines;
}

std::string unescape(const std::string &S) {
  std::string Out;
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] == '\\' && I + 1 != S.size() && S[I + 1] == 'n') {
      Out += '\n';
      ++I;
    } else {
      Out += S[I];
    }
  }
  return Out;
}

} // namespace

bool relax::bench::loadCaseStudies(const CorpusPaths &P,
                                   std::vector<CorpusProgram> &Out,
                                   std::string &Error) {
  std::string Text;
  if (!slurp(P.DataDir + "/expected.txt", Text, Error))
    return false;
  for (const std::string &L : dataLines(Text)) {
    std::istringstream In(L);
    CorpusProgram C;
    std::string Word;
    if (!(In >> C.Name >> Word) || !parseAnswer(Word, C.Want)) {
      Error = "malformed expected.txt line: " + L;
      return false;
    }
    if (!slurp(P.ExamplesDir + "/" + C.Name, C.Source, Error))
      return false;
    Out.push_back(std::move(C));
  }
  return true;
}

bool relax::bench::loadSplicedMutants(const CorpusPaths &P,
                                      std::vector<CorpusProgram> &Out,
                                      std::string &Error) {
  std::string Text;
  if (!slurp(P.DataDir + "/mutants.txt", Text, Error))
    return false;
  for (const std::string &L : dataLines(Text)) {
    std::vector<std::string> F;
    std::istringstream In(L);
    std::string Field;
    while (std::getline(In, Field, '\t'))
      F.push_back(Field);
    CorpusProgram C;
    if (F.size() != 5 || !parseAnswer(F[4], C.Want)) {
      Error = "malformed mutants.txt line: " + L;
      return false;
    }
    std::string Source;
    if (!slurp(P.ExamplesDir + "/" + F[1], Source, Error))
      return false;
    std::string Find = unescape(F[2]);
    size_t At = Source.find(Find);
    if (At == std::string::npos) {
      // A splice that no longer applies would silently benchmark the
      // unmutated (correct) program under a "refuted" answer.
      Error = "splice '" + F[0] + "' does not apply to " + F[1];
      return false;
    }
    C.Name = F[0];
    C.Source = Source.replace(At, Find.size(), unescape(F[3]));
    Out.push_back(std::move(C));
  }
  return true;
}

namespace {

/// True when some original-semantics run from a state in the requires box
/// ends in `wr` (a failed assertion). Initial states enumerate every
/// integer variable over the generator's constant range [-2, 2] and keep
/// those satisfying the requires clause; havoc choices come from seeded
/// random search.
bool hasFailingRun(const std::string &Source) {
  AstContext Ctx;
  SourceManager SM;
  SM.setBuffer("<mutant>", Source);
  DiagnosticEngine Diags;
  Parser P(Ctx, SM, Diags);
  std::optional<Program> Prog = P.parseProgram();
  if (!Prog)
    return false;
  Sema S(*Prog, Diags);
  if (!S.run())
    return false;
  std::vector<Symbol> Vars;
  for (const VarDecl &D : Prog->decls()) {
    if (D.Kind != VarKind::Int)
      return false;
    Vars.push_back(D.Name);
  }
  const BoolExpr *Req = Prog->requiresClause();
  std::vector<int64_t> Digits(Vars.size(), -2);
  while (true) {
    State Init;
    for (size_t I = 0; I != Vars.size(); ++I)
      Init[Vars[I]] = Value(Digits[I]);
    EvalResult<bool> In = Req ? evalDynBool(Req, Init) : EvalResult<bool>::ok(true);
    if (!In.Trapped && In.Val) {
      for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
        RandomSearchOracle::Options OO;
        OO.Seed = Seed;
        OO.Window = 4;
        RandomSearchOracle O(OO);
        Interp I(*Prog, Ctx.symbols(), O);
        if (I.run(SemanticsMode::Original, Init).Kind == OutcomeKind::Wr)
          return true;
      }
    }
    size_t K = 0;
    while (K != Digits.size() && Digits[K] == 2)
      Digits[K++] = -2;
    if (K == Digits.size())
      return false;
    ++Digits[K];
  }
}

} // namespace

bool relax::bench::loadGeneratedMutants(const CorpusPaths &P,
                                        std::vector<CorpusProgram> &Out,
                                        MutantDraws &Draws,
                                        std::string &Error) {
  std::string Text;
  if (!slurp(P.DataDir + "/generated.txt", Text, Error))
    return false;
  std::istringstream In(Text);
  std::string L;
  bool Counted = false;
  unsigned Kept = 0;
  while (std::getline(In, L)) {
    if (L.rfind("### ", 0) == 0) {
      CorpusProgram C;
      C.Name = L.substr(4);
      C.Want = Answer::Refuted;
      Out.push_back(std::move(C));
      ++Kept;
    } else if (Kept) {
      Out.back().Source += L + "\n";
    } else if (std::sscanf(L.c_str(), "# drawn %u dropped %u", &Draws.Drawn,
                           &Draws.Dropped) == 2) {
      Counted = true;
    }
  }
  if (!Counted || Kept == 0 || Draws.Drawn != Kept + Draws.Dropped) {
    Error = "generated.txt: the mutant count does not match its "
            "'# drawn N dropped M' header";
    return false;
  }
  // The known answer is re-confirmed on every load, independently of the
  // verifier: a mutant without a concrete failing run is not known wrong.
  for (size_t I = Out.size() - Kept; I != Out.size(); ++I)
    if (!hasFailingRun(Out[I].Source)) {
      Error = "generated mutant " + Out[I].Name +
              " has no concrete failing run";
      return false;
    }
  return true;
}
