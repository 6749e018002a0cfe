//===- VerifyServer.h - Verification as a service ------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--serve=<addr>` daemon: a long-lived process accepting framed
/// requests over a Unix-domain or TCP socket (support/Transport.h) and
/// answering them with the same verifier the CLI runs. Two request kinds
/// share the wire, dispatched by payload magic:
///
/// * Shard discharge requests (solver/ShardPool.h wire) — so a daemon
///   doubles as a remote worker for `--remote-workers=`, with a warm
///   per-connection solver context like a pipe worker's.
/// * Verify requests — a whole program plus its solver configuration;
///   the response carries the driver-shaped report, diagnostics, and an
///   exit-code-style status (0 verified / 1 refuted / 2 static error /
///   3 gave up), so `relaxc verify f.rlx --connect=<addr>` is a drop-in
///   for a local run.
///
/// One configuration, one parser, one builder: the CLI and the daemon
/// share VerifyConfig (every verdict- or report-relevant knob), its flag
/// parser (which decodes argv and the wire alike) and VerifyPlan (which
/// builds the solvers, the fingerprint, the stats text and the exit
/// status). Adding a knob means one field and one flag case; the wire
/// and the fingerprint follow. Neither side builds a verify run any
/// other way, so no copy can drift.
///
/// Warm state is chosen to keep verdicts bit-identical to a standalone
/// run: each verify request gets a FRESH AstContext (VC generation
/// through a reused context would drift the Interner's fresh counters —
/// x'1 becomes x'2 on the second run — breaking both report identity and
/// persistent-cache keys), while the per-configuration PersistentCache
/// persists across requests (its keys are printed formulas, portable
/// across contexts). Backpressure is a bounded connection count: a
/// request past it is refused with a *retryable* error response instead
/// of queueing unboundedly.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SERVER_VERIFYSERVER_H
#define RELAXC_SERVER_VERIFYSERVER_H

#include "solver/CachingSolver.h"
#include "solver/Portfolio.h"
#include "solver/ShardPool.h"
#include "support/PersistentCache.h"
#include "support/Transport.h"
#include "vcgen/Verifier.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

namespace relax {

//===----------------------------------------------------------------------===//
// Shard-request serving (shared by the pipe worker, the socket worker,
// and the daemon)
//===----------------------------------------------------------------------===//

/// Persistent across requests of one worker/connection: the context's
/// hash-cons tables, compiled formula programs, and Z3 term memos
/// amortize over the obligations one shard serves. Rebuilt when a
/// request changes the solver configuration. Safe to keep warm — shard
/// queries never run VC generation, so the fresh-counter caveat above
/// does not apply to this state.
struct ShardWorkerState {
  std::string ConfigKey;
  std::unique_ptr<AstContext> Ctx;
  std::unique_ptr<PortfolioSolver> Port;
};

/// Answers one shard discharge request (every malformed payload becomes
/// a diagnosed error response, never a crash).
ShardResponse serveShardRequest(ShardWorkerState &W, std::string_view Payload);

/// Payload-magic dispatch for a multiplexed server loop.
bool isShardRequestPayload(std::string_view Payload);
bool isVerifyRequestPayload(std::string_view Payload);

//===----------------------------------------------------------------------===//
// The verify configuration and its builder (shared with the CLI, so a
// served report is byte-identical to a local one)
//===----------------------------------------------------------------------===//

/// Every verify knob that can change a verdict or a report, declared
/// once (see the file comment). A `--connect=` client ships flags() and
/// the daemon reads them back with the parseFlag() that reads argv.
struct VerifyConfig {
  std::string SolverName = "z3"; ///< single-backend mode (`--solver=`)
  std::string Pipeline;          ///< tier spec; "" = single backend
  /// Per-query quantifier-step budget of the bounded tier and of a
  /// single bounded backend.
  uint64_t BoundedSteps = 200'000;
  /// Conflict-driven-search knobs of the bounded search. Verdict-
  /// irrelevant (learning only skips refuted candidates) but
  /// fingerprint-relevant: runs differing in any of them never share
  /// persistent-cache entries.
  bool BoundedLearning = true;
  bool BoundedRestarts = true;
  uint64_t BoundedMaxNogoods = 10'000;
  unsigned Jobs = 1;        ///< parallel discharge workers
  unsigned SolverJobs = 1;  ///< search workers inside the bounded search
  int64_t TimeoutMs = -1;   ///< global deadline (< 0 none); expiry exits 3
  int64_t VcTimeoutMs = -1; ///< per-obligation budget (< 0 none)
  bool NoSafety = false;
  bool OriginalOnly = false;
  bool Verbose = false;
  bool SolverStats = false;

  /// Applies one command-line argument: true when \p Arg is a config
  /// flag, false when it is not one (the caller's own flags); an error
  /// carrying the CLI's diagnostic when its value is bad.
  Result<bool> parseFlag(std::string_view Arg);

  /// The `--flag` spelling of every knob that differs from its default;
  /// parseFlag() over them rebuilds *this.
  std::vector<std::string> flags() const;
};

/// Strict decimal parse: the whole string must be digits. No sign, no
/// whitespace, no overflow — for a budget flag, garbage must never
/// silently mean 0 ("unlimited").
bool parseDecimal(std::string_view V, uint64_t &Out);

/// What one verify run produced.
struct VerifyOutcome {
  VerifyReport Report;
  std::string Output; ///< stdout bytes: the report, then --solver-stats
  int ExitStatus = 3; ///< 0 verified, 1 refuted, 2 static error, 3 gave up
};

/// A VerifyConfig turned into discharge settings: the one builder of the
/// backend, the portfolio, Verifier::Options, the persistent-cache
/// fingerprint, the --solver-stats text and the exit status. Context-free
/// until run(), so the daemon fingerprints a request before parsing it.
struct VerifyPlan {
  VerifyConfig Config;
  /// The tier chain and the bounded budgets. Empty Tiers = the single
  /// `--solver=` backend; a single bounded backend runs with exactly the
  /// options of a final `bounded` tier. The CLI's pool flags rewrite the
  /// final tier to `shard` here before run().
  PortfolioOptions Portfolio;

  /// Checks \p C through the flag parser, so a config built in code meets
  /// the rules argv and the wire meet, and derives the settings.
  static Result<VerifyPlan> create(const VerifyConfig &C);

  /// The single backend (also the oracle backend of `run`/`monitor`).
  std::unique_ptr<Solver> makeBackend(AstContext &Ctx) const;

  /// Every verdict-relevant knob, as the persistent cache's key prefix.
  std::string fingerprint() const;

  /// Runs sema, both passes and discharge. \p PCache may be null; the
  /// caller loads and flushes it.
  VerifyOutcome run(AstContext &Ctx, const Program &Prog,
                    DiagnosticEngine &Diags, PersistentCache *PCache) const;
};

//===----------------------------------------------------------------------===//
// The verify wire
//===----------------------------------------------------------------------===//

/// One whole verification job: the program source plus its
/// configuration, which crosses the wire as VerifyConfig::flags().
struct VerifyWireRequest : VerifyConfig {
  std::string FileName = "<request>"; ///< diagnostics rendering only
  std::string Source;                 ///< the program text, verbatim
};

std::string serializeVerifyRequest(const VerifyWireRequest &R);
Result<VerifyWireRequest> parseVerifyRequest(std::string_view Payload);

/// The daemon's answer. On success, Report/Diagnostics are the exact
/// bytes a standalone `relaxc verify` would have written to
/// stdout/stderr, and ExitStatus is the exit code it would have
/// returned. On IsError, ExitStatus classifies the failure the same way
/// (2 = request was malformed, 3 = the service could not answer);
/// Retryable marks transient refusals (the daemon at capacity).
struct VerifyWireResponse {
  int ExitStatus = 3;
  bool IsError = false;
  bool Retryable = false;
  std::string Error;
  std::string Diagnostics;
  std::string Report;
};

std::string serializeVerifyResponse(const VerifyWireResponse &R);
Result<VerifyWireResponse> parseVerifyResponse(std::string_view Payload);

/// VerifyPlan::create(R).fingerprint(): a daemon given the CLI's
/// --cache-dir= shares its on-disk entries. Empty when the request does
/// not check out (the job will diagnose it).
std::string verifyJobFingerprint(const VerifyWireRequest &R);

/// Runs one verification job start to finish in a fresh AstContext.
/// \p PCache may be null; when set it fronts the run's shared result
/// cache (this is the daemon's warm state).
VerifyWireResponse runVerifyJob(const VerifyWireRequest &R,
                                PersistentCache *PCache);

//===----------------------------------------------------------------------===//
// The daemon
//===----------------------------------------------------------------------===//

struct VerifyServerOptions {
  std::string Address;          ///< unix:<path> or host:port (0 = ephemeral)
  unsigned MaxConnections = 8;  ///< concurrent connections; more are refused
  int AcceptBacklog = 16;       ///< kernel accept queue (the only queue)
  /// Whole-frame read budget once a request's first byte arrives: the
  /// anti-slow-loris bound. Idle connections may wait indefinitely.
  int FrameReadTimeoutMs = 30'000;
  /// Cap on any request's TimeoutMs (< 0 = no cap): requests asking for
  /// more (or for no deadline) are clamped, so one client cannot pin a
  /// handler thread forever.
  int64_t MaxRequestTimeoutMs = -1;
  std::string CacheDir; ///< persistent verdict cache ("" = in-memory warm)
};

class VerifyServer {
public:
  /// Binds the address; fails only on bind/grammar errors.
  static Result<std::unique_ptr<VerifyServer>> create(VerifyServerOptions O);
  ~VerifyServer();

  /// The resolved address (TCP port 0 becomes the real ephemeral port).
  const std::string &boundAddress() const { return Listener.address(); }

  /// Serves until requestStop(), then drains in-flight connections.
  /// Returns 0 (kept int-shaped for the driver's exit-code discipline).
  int run();

  /// Thread- and signal-safe stop request; run() notices within ~250ms.
  void requestStop() { Stopping.store(true); }

private:
  VerifyServer() = default;

  void serveConnection(std::shared_ptr<Transport> Conn);
  VerifyWireResponse handleVerify(std::string_view Payload);
  PersistentCache *cacheFor(const std::string &Fingerprint);

  VerifyServerOptions Opts;
  SocketListener Listener;
  std::atomic<bool> Stopping{false};
  std::mutex M;
  std::condition_variable DrainCV;
  unsigned Active = 0;
  std::mutex CacheM;
  std::map<std::string, std::unique_ptr<PersistentCache>> Caches;
};

} // namespace relax

#endif // RELAXC_SERVER_VERIFYSERVER_H
