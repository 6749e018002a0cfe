//===- Workloads.h - How each workload runs one verification --------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untraced verification paths the end-to-end metrics time, and the
/// traced replay that re-drives the same verification layer by layer for
/// the per-layer metrics.
///
///  * Local modes call the public relaxc API the way `relaxc verify` does:
///    parse, Verifier::run (Z3 behind a CachingSolver, or the tiered
///    portfolio), renderReport. Time runs from the start of parse to the
///    finished report.
///  * Serve mode sends verify requests to a VerifyServer started through
///    its public API on a unix socket, with an in-memory warm cache; time
///    is the client's round trip.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_WORKLOADS_H
#define VERIFYBENCH_WORKLOADS_H

#include "Corpus.h"
#include "Trace.h"

#include "server/VerifyServer.h"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace relax {
namespace bench {

enum class Mode { Z3, Tiered, Serve };

/// Exact work counters of one verification, by per-layer metric name.
using Counters = std::map<std::string, uint64_t>;

/// The outcome of one timed verification.
struct Timed {
  double Ms = 0;
  bool Correct = false; ///< the verdict equals the known answer
  bool Refused = false; ///< the daemon refused the request
  uint64_t WireBytes = 0;
};

/// The CLI's `--pipeline=simplify,bounded,z3` configuration with default
/// bounded knobs (what `makeJobPortfolio` builds for the same request).
PortfolioOptions tieredOptions();

/// Whether a finished report carries the known answer: a proof for a
/// correct program; a real refutation (at least one failed obligation, no
/// static error) for a wrong one. Undecided is never correct.
bool verdictMatches(const VerifyReport &R, const std::string &Text,
                    Answer Want);

/// Untraced local verification; fills \p C with the run's DischargeStats
/// (and CachingSolver) counters when non-null.
Timed verifyLocal(Mode M, const CorpusProgram &P, Counters *C);

/// The daemon and its client connections.
class ServeRig {
public:
  ServeRig() = default;
  ~ServeRig() { stop(); }
  ServeRig(const ServeRig &) = delete;
  ServeRig &operator=(const ServeRig &) = delete;

  /// Binds `unix:<SocketPath>`, starts the accept loop and connects
  /// \p Clients connections.
  bool start(const std::string &SocketPath, unsigned Clients,
             std::string &Error);
  /// One closed-loop request on connection \p Client. With \p Stats the
  /// request asks for the daemon's `--solver-stats` block and \p Stats
  /// receives its counters under the replay's names, except that
  /// `support.pcache.hits_total` is the daemon's running total.
  Timed verify(unsigned Client, const CorpusProgram &P,
               Counters *Stats = nullptr);
  /// Closes the connections, stops the daemon and waits for it.
  void stop();

private:
  std::unique_ptr<VerifyServer> Server;
  std::thread Loop;
  std::string Address;
  std::string Path;
  std::vector<std::unique_ptr<Transport>> Conns;
};

/// The verify request a serve-mode client sends for \p P.
VerifyWireRequest serveRequest(const CorpusProgram &P);

/// Re-drives one verification layer by layer under \p T (as `dump-vcs`
/// and `PortfolioSolver::checkRange(i, i+1)` do), returning its exact
/// counters. \p Warm is the serve-mode in-memory warm cache (null in the
/// local modes). Sets \p Correct from the replayed verdict.
Counters replay(Mode M, const CorpusProgram &P, Tracer &T,
                PersistentCache *Warm, bool &Correct,
                uint64_t &FormulaBytes);

} // namespace bench
} // namespace relax

#endif // VERIFYBENCH_WORKLOADS_H
