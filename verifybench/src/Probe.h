//===- Probe.h - The same-run reference probe -----------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference probe: a fixed set of SMT-LIB scripts (probe/scripts.smt2,
/// frozen from `relaxc dump-vcs --smtlib`) solved with the system libz3 C
/// API. No relaxc code runs in it, so no change to relaxc can move it; it
/// moves only with the machine. Every end-to-end time is divided by the
/// probe time measured next to it.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_PROBE_H
#define VERIFYBENCH_PROBE_H

#include <string>
#include <vector>

namespace relax {
namespace bench {

class Probe {
public:
  /// Reads the scripts; returns false with \p Error set on a bad file.
  bool load(const std::string &Path, std::string &Error);

  /// Solves every script once in a fresh Z3 context and returns the wall
  /// time in ms. A script whose answer differs from its frozen expected
  /// status counts in wrongAnswers().
  double run();

  size_t scriptCount() const { return Scripts.size(); }
  size_t wrongAnswers() const { return Wrong; }

  /// The linked libz3's full version string.
  static std::string z3Version();

private:
  struct Script {
    std::string Text;
    bool ExpectSat = false;
  };
  std::vector<Script> Scripts;
  size_t Wrong = 0;
};

} // namespace bench
} // namespace relax

#endif // VERIFYBENCH_PROBE_H
