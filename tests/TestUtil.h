//===- TestUtil.h - Shared helpers for the relaxc test suite -------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#ifndef RELAXC_TESTS_TESTUTIL_H
#define RELAXC_TESTS_TESTUTIL_H

#include "ast/Printer.h"
#include "parser/Parser.h"
#include "solver/CachingSolver.h"
#include "solver/Z3Solver.h"
#include "vcgen/Verifier.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

namespace relax {
namespace test {

/// Bundles everything needed to parse and check one source string.
struct ParsedProgram {
  std::unique_ptr<AstContext> Ctx;
  SourceManager SM;
  DiagnosticEngine Diags;
  std::optional<Program> Prog;

  bool ok() const { return Prog.has_value() && !Diags.hasErrors(); }
  std::string diagnostics() const { return Diags.render(); }
};

/// Parses \p Source as a full program.
inline ParsedProgram parseProgram(const std::string &Source) {
  ParsedProgram Out;
  Out.Ctx = std::make_unique<AstContext>();
  Out.SM.setBuffer("<test>", Source);
  Parser P(*Out.Ctx, Out.SM, Out.Diags);
  Out.Prog = P.parseProgram();
  return Out;
}

/// Parses and fully verifies \p Source with Z3; returns the report.
/// Asserts that parsing succeeded.
inline VerifyReport verifySource(const std::string &Source,
                                 bool CheckSafety = true) {
  ParsedProgram P = parseProgram(Source);
  EXPECT_TRUE(P.ok()) << P.diagnostics();
  if (!P.ok())
    return VerifyReport();
  Z3Solver Backend(P.Ctx->symbols());
  CachingSolver Cached(Backend);
  Verifier V(*P.Ctx, *P.Prog, Cached, P.Diags);
  Verifier::Options Opts;
  Opts.GenOpts.CheckSafety = CheckSafety;
  return V.run(Opts);
}

/// Renders a failure explanation for a report.
inline std::string explain(const VerifyReport &R, const ParsedProgram &P) {
  return renderReport(R, P.Ctx->symbols()) + P.diagnostics();
}

/// Path to the repository's example programs (set by CMake).
inline std::string examplePath(const std::string &Name) {
  return std::string(RELAXC_EXAMPLES_DIR) + "/" + Name;
}

/// Path to the built relaxc driver binary (set by CMake; the shard and
/// CLI suites spawn it as a real subprocess).
inline std::string driverPath() {
#ifdef RELAXC_DRIVER_PATH
  return RELAXC_DRIVER_PATH;
#else
  return std::string();
#endif
}

/// One failure-injection mutant of a case study: the first occurrence of
/// \c From in \c File becomes \c To, and the result must not verify.
struct ExampleMutation {
  const char *Name; ///< the ExamplesMutated test that pins it
  const char *File;
  const char *From;
  const char *To;
};

/// Every case-study mutant (verifier_tests pins that each one fails; the
/// portfolio suite pins that the tiered pipeline agrees with plain Z3).
inline constexpr ExampleMutation ExampleMutations[] = {
    // Allowing the threshold to drop below 10 breaks the acceptability
    // property (an annotation bug the verifier caught in development).
    {"SwishWeakenedRelaxation", "swish.rlx", "10 <= max_r));",
     "9 <= max_r));"},
    {"SwishStrongerRelate", "swish.rlx", "10 <= num_r<o> && 10 <= num_r<r>",
     "10 <= num_r<o> && 11 <= num_r<r>"},
    // Dropping the lockstep assume removes the bridge that lets the bound
    // transfer into the divergent branch.
    {"WaterWithoutAssume", "water.rlx", "assume (K < len_FF);\n    if",
     "skip;\n    if"},
    {"WaterWeakerRequires", "water.rlx", "requires (N >= 0 && N <= len(RS)",
     "requires (N >= 0 && N - 1 <= len(RS)"},
    {"LuTighterRelate", "lu.rlx", "relate lipschitz : max<o> - max<r> <= e<o>",
     "relate lipschitz : max<o> - max<r> <= e<o> - 1"},
    {"LuWiderRelaxation", "lu.rlx",
     "relax (a) st (original_a - e <= a && a <= original_a + e)",
     "relax (a) st (original_a - 2 * e <= a && a <= original_a + 2 * e)"},
    // Dropping bump's nonnegativity promise starves every call site: the
    // caller's assert and relate depend on the summary, not the body.
    {"SharedCalleeWeakerBumpContract", "shared_callee.rlx",
     "rensures (0 <= x<o> && 0 <= x<r>);", "rensures (true);"},
};

/// The mutant \p Name from ExampleMutations (which must contain it).
inline const ExampleMutation &exampleMutation(std::string_view Name) {
  for (const ExampleMutation &M : ExampleMutations)
    if (Name == M.Name)
      return M;
  std::abort();
}

/// Applies \p M to the case-study source \p Source; empty when the
/// mutation anchor is missing.
inline std::string applyMutation(const ExampleMutation &M,
                                 std::string Source) {
  size_t Pos = Source.find(M.From);
  if (Pos == std::string::npos)
    return std::string();
  return Source.replace(Pos, std::string_view(M.From).size(), M.To);
}

/// True when the Z3 decision-procedure backend was compiled in. Tests that
/// discharge VCs (or that assert a program does NOT verify) are
/// meaningless against the stub backend: it answers every query with an
/// error, so "verifies" tests hard-fail and "must not verify" tests pass
/// vacuously. Both are wrong — such tests must skip instead.
inline bool haveZ3() { return RELAXC_HAVE_Z3 != 0; }

} // namespace test
} // namespace relax

/// Skips the current test (with a reason) when the Z3 backend is not
/// built. Use at the top of any TEST whose verdict depends on a real
/// solver. Expands in the test body, so GTEST_SKIP returns from the test.
#define RELAXC_SKIP_WITHOUT_Z3()                                               \
  do {                                                                         \
    if (!relax::test::haveZ3())                                                \
      GTEST_SKIP() << "Z3 backend not built (RELAXC_ENABLE_Z3=OFF)";           \
  } while (0)

/// Skips the current test when the driver binary is unavailable (it is
/// always built alongside the tests; this guards stale installs).
#define RELAXC_SKIP_WITHOUT_DRIVER()                                           \
  do {                                                                         \
    if (relax::test::driverPath().empty())                                     \
      GTEST_SKIP() << "relaxc driver binary not configured";                   \
  } while (0)

/// Declares `std::string Var` holding the source of the named example
/// program, skipping the test (with a reason) when the file is missing —
/// a missing corpus must never surface as a file-not-found hard failure.
#define RELAXC_SLURP_EXAMPLE_OR_SKIP(Var, Name)                                \
  std::string Var;                                                             \
  do {                                                                         \
    relax::SourceManager SlurpSM_;                                             \
    if (!SlurpSM_.loadFile(relax::test::examplePath(Name)).ok())               \
      GTEST_SKIP() << "example program not found: "                            \
                   << relax::test::examplePath(Name);                          \
    Var = std::string(SlurpSM_.buffer());                                      \
  } while (0)

#endif // RELAXC_TESTS_TESTUTIL_H
