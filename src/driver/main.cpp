//===- main.cpp - The relaxc command-line tool --------------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// relaxc <command> <file.rlx> [options]
///
/// Commands:
///   verify    run sema + |-o + |-r and report the verification verdict
///   run       execute one dynamic semantics with a chosen oracle
///   monitor   run original/relaxed pairs and check the paper's theorems
///   dump-vcs  print every generated verification condition
///   print     parse and pretty-print (round-trip check)
///
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "eval/PairRunner.h"
#include "parser/Parser.h"
#include "server/VerifyServer.h"
#include "solver/Portfolio.h"
#include "solver/RemotePool.h"
#include "solver/ShardPool.h"
#include "solver/Z3Solver.h"
#include "support/FaultInjection.h"
#include "support/PersistentCache.h"
#include "support/Subprocess.h"
#include "support/Transport.h"
#include "vcgen/Verifier.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <signal.h>
#include <unistd.h>

using namespace relax;

namespace {

struct CliOptions {
  std::string Command;
  std::string File;
  /// Every verdict- or report-relevant knob, shared with the daemon.
  VerifyConfig Config;
  std::string OracleName = "solver";
  std::string Semantics = "relaxed";
  /// Obligation id ("o:3" / "r:5") to explain after a verify run.
  std::string Explain;
  uint64_t Seed = 1;
  unsigned Runs = 16;
  /// Worker processes of the sharded discharge tier (0 = in-process).
  unsigned Shards = 0;
  /// Remote discharge worker endpoints (`--remote-workers=host:port,...`);
  /// empty = none. Mutually exclusive with --shards=.
  std::string RemoteWorkers;
  /// Daemon address for client mode (`--connect=<addr>`): ship the file
  /// to a `--serve` daemon instead of verifying locally.
  std::string Connect;
  /// This executable's path — respawned as the shard workers.
  std::string ExePath;
  size_t ArrayLen = 8;
  /// Directory of the persistent verdict cache ("" = off).
  std::string CacheDir;
  /// Verify-on-hit sampling rate in parts per million (0 = off).
  uint64_t CacheVerifyPpm = 0;
  bool CacheVerifySet = false; ///< --cache-verify= was passed explicitly
  /// Hidden fault-injection spec (see support/FaultInjection.h); also
  /// exported as RELAXC_FAULTS so shard workers inherit it.
  std::string Faults;
  bool SmtLib = false;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: relaxc <verify|run|monitor|dump-vcs|print> <file.rlx> "
      "[options]\n"
      "\n"
      "options:\n"
      "  --solver=<z3|bounded>     VC discharge backend (default z3)\n"
      "  --pipeline=<tier,...>     tiered portfolio discharge for `verify`\n"
      "                            (tiers: simplify, bounded, z3; e.g.\n"
      "                            --pipeline=simplify,bounded,z3)\n"
      "  --bounded-steps=<n>       per-query quantifier-step budget B of a\n"
      "                            final bounded tier and of\n"
      "                            --solver=bounded (default 200000); a\n"
      "                            non-final bounded tier runs with B/16\n"
      "                            (and 1/16 of its candidates), the z3\n"
      "                            tier without Z3 with 16*B\n"
      "  --bounded-learning=<on|off>\n"
      "                            conflict-driven nogood learning in the\n"
      "                            bounded search (default on; verdicts\n"
      "                            are identical either way)\n"
      "  --bounded-restarts=<on|off>\n"
      "                            Luby restarts with activity-based\n"
      "                            variable ordering (default on; implies\n"
      "                            nothing unless learning is on)\n"
      "  --bounded-max-nogoods=<n> learned-nogood store cap of the bounded\n"
      "                            search (default 10000; 0 = unlimited)\n"
      "  --explain=<o:N|r:N|proc:name>\n"
      "                            after `verify`, print obligation N of\n"
      "                            the |-o / |-r pass (provenance, formula,\n"
      "                            and which tier settled it), or list every\n"
      "                            obligation of one procedure's summaries\n"
      "  --solver-stats            print per-tier settled/escalated counts,\n"
      "                            cache/work counters, and per-procedure\n"
      "                            obligation counts after `verify`\n"
      "  --oracle=<solver|random|identity>\n"
      "                            havoc/relax resolution strategy\n"
      "  --semantics=<original|relaxed>   for `run` (default relaxed)\n"
      "  --seed=<n>                oracle randomness seed (default 1)\n"
      "  --runs=<n>                pair runs for `monitor` (default 16)\n"
      "  --array-len=<n>           initial array length (default 8)\n"
      "  --timeout-ms=<n>          global wall-clock budget for `verify`;\n"
      "                            obligations past it settle as gave-ups\n"
      "                            with reason 'deadline' (exit code 3)\n"
      "  --vc-timeout-ms=<n>       per-obligation wall-clock budget\n"
      "  --jobs=<n>                parallel VC discharge workers for "
      "`verify` (default 1)\n"
      "  --solver-jobs=<n>         parallel search workers inside the "
      "bounded backend (default 1)\n"
      "  --shards=<n>              discharge escalated obligations on <n> "
      "worker\n"
      "                            processes: the pipeline's final tier "
      "becomes a\n"
      "                            `shard` tier backed by a pool of "
      "subprocesses,\n"
      "                            each with its own AST and solver "
      "contexts\n"
      "                            (verdicts are identical to --shards=0)\n"
      "  --remote-workers=<addr,...>\n"
      "                            like --shards=, but the workers are "
      "remote:\n"
      "                            one socket endpoint (host:port or\n"
      "                            unix:/path) per worker, each running\n"
      "                            `relaxc --discharge-worker "
      "--listen=<addr>`\n"
      "                            or a `--serve` daemon (verdicts are\n"
      "                            identical to the in-process chain)\n"
      "  --connect=<addr>          verify via a `relaxc --serve=<addr>` "
      "daemon:\n"
      "                            ship the file, print the served "
      "report,\n"
      "                            exit with the served status\n"
      "  --serve=<addr>            (as the first argument) run the "
      "verification\n"
      "                            daemon on unix:/path or host:port; "
      "serves\n"
      "                            --connect= clients and shard requests\n"
      "  --cache-dir=<dir>         persistent verdict cache for `verify`: "
      "settled\n"
      "                            obligations are reused across runs "
      "(content-\n"
      "                            addressed by printed formula, var kinds, "
      "and\n"
      "                            pipeline config; deadline and gave-up\n"
      "                            verdicts are never stored)\n"
      "  --cache-verify=<ppm>      re-discharge a deterministic sample of "
      "cache\n"
      "                            hits (parts per million of lookups) and\n"
      "                            hard-fail on any divergence; requires\n"
      "                            --cache-dir=\n"
      "  --no-safety               skip division/bounds trap obligations\n"
      "  --original-only           verify only the |-o judgment\n"
      "  --smtlib                  dump-vcs: emit SMT-LIB 2 scripts\n"
      "  --verbose                 print every VC, not just failures\n"
      "\n"
      "verify exit codes: 0 verified; 1 at least one obligation refuted;\n"
      "2 usage/parse/static error; 3 not verified but nothing refuted\n"
      "(solver gave up or errored)\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.File = Argv[2];
  for (int I = 3; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    // The CLI's own numeric flags: strict decimals, diagnosed in the
    // config parser's shape.
    uint64_t N = 0;
    auto Number = [&](const char *V, const char *Flag, uint64_t Max,
                      const char *Expected) {
      if (parseDecimal(V, N) && N <= Max)
        return true;
      std::fprintf(stderr, "relaxc: error: bad %s value '%s' (%s)\n", Flag, V,
                   Expected);
      return false;
    };
    Result<bool> Took = Opts.Config.parseFlag(A);
    if (!Took.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", Took.message().c_str());
      return false;
    }
    if (*Took)
      continue;
    if (const char *V = Value("--explain="))
      Opts.Explain = V;
    else if (const char *V = Value("--oracle="))
      Opts.OracleName = V;
    else if (const char *V = Value("--semantics="))
      Opts.Semantics = V;
    else if (const char *V = Value("--seed=")) {
      // Strict, like every other numeric flag: bare strtoull mapped
      // --seed=garbage to 0 and --seed=12abc to 12, silently changing
      // which runs a reported failure reproduces.
      if (!Number(V, "--seed", UINT64_MAX, "expected a decimal seed"))
        return false;
      Opts.Seed = N;
    } else if (const char *V = Value("--runs=")) {
      if (!Number(V, "--runs", UINT32_MAX, "expected a decimal run count"))
        return false;
      Opts.Runs = static_cast<unsigned>(N);
    } else if (const char *V = Value("--array-len=")) {
      if (!Number(V, "--array-len", UINT32_MAX, "expected a decimal length"))
        return false;
      Opts.ArrayLen = static_cast<size_t>(N);
    } else if (const char *V = Value("--cache-dir=")) {
      if (*V == '\0') {
        std::fprintf(stderr,
                     "relaxc: error: bad --cache-dir value (expected a "
                     "directory path)\n");
        return false;
      }
      Opts.CacheDir = V;
    } else if (const char *V = Value("--cache-verify=")) {
      if (!Number(V, "--cache-verify", 1'000'000,
                  "expected a parts-per-million rate <= 1000000"))
        return false;
      Opts.CacheVerifyPpm = N;
      Opts.CacheVerifySet = true;
    } else if (const char *V = Value("--shards=")) {
      if (!Number(V, "--shards", 256,
                  "expected a decimal worker count <= 256; 0 = in-process"))
        return false;
      Opts.Shards = static_cast<unsigned>(N);
    } else if (const char *V = Value("--remote-workers=")) {
      if (*V == '\0') {
        std::fprintf(stderr,
                     "relaxc: error: bad --remote-workers value (expected a "
                     "comma-separated endpoint list)\n");
        return false;
      }
      Opts.RemoteWorkers = V;
    } else if (const char *V = Value("--connect=")) {
      if (*V == '\0') {
        std::fprintf(stderr, "relaxc: error: bad --connect value (expected "
                             "unix:<path> or host:port)\n");
        return false;
      }
      Opts.Connect = V;
    } else if (const char *V = Value("--faults=")) {
      // Hidden: deterministic fault injection for the chaos suite.
      Opts.Faults = V;
    }
    else if (A == "--smtlib")
      Opts.SmtLib = true;
    else {
      std::fprintf(stderr, "relaxc: error: unknown option '%s'\n", A.c_str());
      return false;
    }
  }
  if (Opts.CacheVerifySet && Opts.CacheDir.empty()) {
    std::fprintf(stderr,
                 "relaxc: error: --cache-verify= requires --cache-dir= "
                 "(there is no cache to audit without one)\n");
    return false;
  }
  if (Opts.Shards > 0 && !Opts.RemoteWorkers.empty()) {
    std::fprintf(stderr,
                 "relaxc: error: --shards= and --remote-workers= are "
                 "mutually exclusive (one pool per run)\n");
    return false;
  }
  if (!Opts.Connect.empty()) {
    if (Opts.Command != "verify") {
      std::fprintf(stderr, "relaxc: error: --connect= only applies to "
                           "`verify`\n");
      return false;
    }
    if (Opts.Shards > 0 || !Opts.RemoteWorkers.empty()) {
      std::fprintf(stderr,
                   "relaxc: error: --connect= ships the whole job to the "
                   "daemon; pool flags belong to the daemon's side\n");
      return false;
    }
    if (!Opts.CacheDir.empty()) {
      std::fprintf(stderr,
                   "relaxc: error: --cache-dir= does not combine with "
                   "--connect= (the cache lives in the daemon; pass it to "
                   "--serve=)\n");
      return false;
    }
    if (!Opts.Explain.empty()) {
      std::fprintf(stderr, "relaxc: error: --explain= is not available "
                           "over --connect=\n");
      return false;
    }
  }
  return true;
}

std::unique_ptr<Oracle> makeOracle(const CliOptions &Opts, AstContext &Ctx,
                                   Solver &S) {
  if (Opts.OracleName == "identity")
    return std::make_unique<IdentityOracle>();
  if (Opts.OracleName == "random") {
    RandomSearchOracle::Options O;
    O.Seed = Opts.Seed;
    return std::make_unique<RandomSearchOracle>(O);
  }
  SolverOracle::Options O;
  O.Seed = Opts.Seed;
  return std::make_unique<SolverOracle>(Ctx, S, O);
}

void printOutcome(const Interner &Syms, const char *Title, const Outcome &O) {
  std::printf("%s: %s", Title, outcomeKindName(O.Kind));
  if (O.ok())
    std::printf(", final state %s, %zu observation(s)\n",
                formatState(Syms, O.FinalState).c_str(),
                O.Observations.size());
  else
    std::printf(" at line %u: %s\n", O.ErrorLoc.Line, O.Reason.c_str());
}

/// Lists every obligation of one procedure's summary verifications
/// (`--explain=proc:<name>`). Returns false (usage-error discipline) when
/// the name is empty or names no obligation of this run.
bool printExplainProc(const VerifyReport &Report, const std::string &Name) {
  if (Name.empty()) {
    std::fprintf(stderr, "relaxc: error: bad --explain filter: empty "
                         "procedure name (expected proc:<name>)\n");
    return false;
  }
  size_t Shown = 0;
  auto DumpPass = [&](const JudgmentReport &Pass, char Prefix) {
    for (const VCOutcome &O : Pass.Outcomes) {
      if (O.Condition.Proc != Name)
        continue;
      ++Shown;
      std::printf("  [%s] %c:%u %s (%s)", vcStatusName(O.Status), Prefix,
                  O.Condition.Id, O.Condition.Rule.c_str(),
                  judgmentKindName(O.Condition.Judgment));
      if (O.Condition.Loc.isValid())
        std::printf(" at line %u", O.Condition.Loc.Line);
      std::printf(": %s\n", O.Condition.Description.c_str());
    }
  };
  std::printf("== obligations of procedure '%s' ==\n", Name.c_str());
  DumpPass(Report.Original, 'o');
  DumpPass(Report.Relaxed, 'r');
  if (Shown == 0) {
    std::fprintf(stderr,
                 "relaxc: error: no obligations for procedure '%s' in "
                 "this run\n",
                 Name.c_str());
    return false;
  }
  std::printf("  %zu obligation(s)\n", Shown);
  return true;
}

/// Prints one obligation's provenance and how it was settled
/// (`--explain=<o:N|r:N>`), or a per-procedure listing for
/// `--explain=proc:<name>`. Returns false when the id does not parse or
/// name an obligation of this run.
bool printExplain(const VerifyReport &Report, const std::string &Id,
                  const AstContext &Ctx) {
  if (Id.rfind("proc:", 0) == 0)
    return printExplainProc(Report, Id.substr(5));
  const JudgmentReport *Pass = nullptr;
  const char *PassName = nullptr;
  uint64_t N = 0;
  if (Id.size() > 2 && Id[1] == ':' && (Id[0] == 'o' || Id[0] == 'r') &&
      parseDecimal(Id.c_str() + 2, N)) {
    Pass = Id[0] == 'o' ? &Report.Original : &Report.Relaxed;
    PassName = Id[0] == 'o' ? "|-o" : "|-r";
  }
  if (!Pass) {
    std::fprintf(stderr,
                 "relaxc: error: bad --explain id '%s' (expected o:<n>, "
                 "r:<n>, or proc:<name>)\n",
                 Id.c_str());
    return false;
  }
  const VCOutcome *Found = nullptr;
  for (const VCOutcome &O : Pass->Outcomes)
    if (O.Condition.Id == N) {
      Found = &O;
      break;
    }
  if (!Found) {
    std::fprintf(stderr,
                 "relaxc: error: no obligation %s in the %s pass "
                 "(%zu obligations)\n",
                 Id.c_str(), PassName, Pass->Outcomes.size());
    return false;
  }
  const VC &C = Found->Condition;
  Printer P(Ctx.symbols());
  std::printf("== obligation %s ==\n", Id.c_str());
  std::printf("  judgment:    %s (%s pass)\n", judgmentKindName(C.Judgment),
              PassName);
  std::printf("  rule:        %s (%s obligation)\n", C.Rule.c_str(),
              C.Kind == VCKind::Validity ? "validity" : "satisfiability");
  if (!C.Proc.empty())
    std::printf("  procedure:   %s\n", C.Proc.c_str());
  if (C.Loc.isValid())
    std::printf("  source:      line %u\n", C.Loc.Line);
  std::printf("  description: %s\n", C.Description.c_str());
  if (C.Origin)
    std::printf("  origin statement:\n%s",
                P.print(C.Origin, /*Indent=*/4).c_str());
  else
    std::printf("  origin statement: (whole-triple obligation)\n");
  if (C.SimplifyTraceId)
    std::printf("  simplify trace: rewrite #%u of this generator run\n",
                C.SimplifyTraceId);
  else
    std::printf("  simplify trace: formula emitted verbatim\n");
  std::printf("  formula:     %s\n", P.print(C.Formula).c_str());
  std::printf("  status:      %s", vcStatusName(Found->Status));
  if (!Found->SettledBy.empty())
    std::printf(" — settled by %s", Found->SettledBy.c_str());
  std::printf(" (%.2f ms)\n", Found->Millis);
  if (!Found->Detail.empty())
    std::printf("  detail:      %s\n", Found->Detail.c_str());
  if (!Found->Trail.empty())
    std::printf("  escalation trail: %s\n", Found->Trail.c_str());
  std::printf("  bounded conflicts: %llu\n",
              static_cast<unsigned long long>(Found->BoundedConflicts));
  return true;
}

//===----------------------------------------------------------------------===//
// The hidden --discharge-worker mode: one shard of the out-of-process
// discharge tier. Reads length-prefixed requests (wire format in
// solver/ShardPool.h) on stdin, or with --listen=<addr> on accepted
// socket connections, rebuilds each query in its own AstContext through
// the ordinary parser (serveShardRequest, server/VerifyServer.h), and
// writes the verdict frame back. Any framing error is answered with a
// diagnosed error frame (never a hang or crash) and ends the channel,
// since the stream position is unrecoverable.
//===----------------------------------------------------------------------===//

/// Serves shard requests on \p T until EOF (returns 0), a frame error or
/// a failed send (returns 2). \p W stays warm across calls.
int serveShardFrames(Transport &T, ShardWorkerState &W) {
  for (;;) {
    FrameRead F = T.recvMs(-1);
    if (F.eof())
      return 0; // clean shutdown: the pool closed its end
    if (!F.ok()) {
      ShardResponse Resp;
      Resp.IsError = true;
      Resp.Error = "frame error: " + F.Message;
      (void)T.send(serializeShardResponse(Resp));
      std::fprintf(stderr, "relaxc: discharge worker: %s\n",
                   F.Message.c_str());
      return 2;
    }
    // Chaos-suite crash site: die instead of answering, alternating
    // between vanishing silently and dying mid-frame (garbage partial
    // header bytes toward the pool) — the two shapes a real worker crash
    // has from the pool's point of view. Parity of the draw index (how
    // many requests this worker saw) picks the shape; a worker dies on
    // its first fire.
    if (FaultRegistry::shouldFail(FaultSite::WorkerExit)) {
      if (FaultRegistry::instance().drawCount(FaultSite::WorkerExit) % 2 == 1)
        (void)!::write(T.sendFd(), "RLXF\xff\xff", 6);
      ::_exit(3);
    }
    ShardResponse Resp = serveShardRequest(W, F.Payload);
    if (FaultRegistry::shouldFail(FaultSite::ResponseDelay))
      std::this_thread::sleep_for(std::chrono::milliseconds(
          FaultRegistry::instance().delayMs()));
    if (!T.send(serializeShardResponse(Resp)).ok())
      return 2; // the pool went away mid-response
  }
}

/// `--discharge-worker --listen=<addr>`, for `--remote-workers=`.
/// Connections are served sequentially (one remote-pool slot holds one
/// connection at a time); the solver context stays warm across them, so
/// a reconnecting pool keeps its amortized state. A framing error drops
/// only that connection — the worker keeps listening.
int runDischargeWorkerListen(const std::string &Addr) {
  Result<SocketListener> L = SocketListener::bind(Addr);
  if (!L.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", L.message().c_str());
    return 2;
  }
  // Readiness line on stdout: scripts poll for it (and, with an
  // ephemeral TCP port, read the resolved address from it).
  std::printf("relaxc: discharge worker listening on %s\n",
              L->address().c_str());
  std::fflush(stdout);
  ShardWorkerState W;
  for (;;) {
    Result<std::unique_ptr<Transport>> CR = L->accept();
    if (CR.ok()) // else a transient accept error
      (void)serveShardFrames(**CR, W);
  }
}

/// `--serve=<addr>` (as the first argument): the verification daemon.
/// Remaining arguments are daemon-scoped flags, parsed strictly here —
/// the regular CLI grammar (command + file) does not apply.
int runServe(int Argc, char **Argv) {
  VerifyServerOptions SO;
  SO.Address = Argv[1] + std::strlen("--serve=");
  if (SO.Address.empty()) {
    std::fprintf(stderr, "relaxc: error: bad --serve value (expected "
                         "unix:<path> or host:port)\n");
    return 2;
  }
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    uint64_t N = 0;
    if (const char *V = Value("--faults=")) {
      if (Status S = FaultRegistry::instance().arm(V); !S.ok()) {
        std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
        return 2;
      }
    } else if (const char *V = Value("--cache-dir=")) {
      SO.CacheDir = V;
    } else if (const char *V = Value("--serve-threads=")) {
      if (!parseDecimal(V, N) || N == 0 || N > 1024) {
        std::fprintf(stderr, "relaxc: error: bad --serve-threads value "
                             "'%s' (expected 1..1024)\n", V);
        return 2;
      }
      SO.MaxConnections = static_cast<unsigned>(N);
    } else if (const char *V = Value("--serve-queue=")) {
      if (!parseDecimal(V, N) || N == 0 || N > 4096) {
        std::fprintf(stderr, "relaxc: error: bad --serve-queue value "
                             "'%s' (expected 1..4096)\n", V);
        return 2;
      }
      SO.AcceptBacklog = static_cast<int>(N);
    } else if (const char *V = Value("--serve-frame-timeout-ms=")) {
      if (!parseDecimal(V, N) || N > uint64_t(INT32_MAX)) {
        std::fprintf(stderr, "relaxc: error: bad --serve-frame-timeout-ms "
                             "value '%s'\n", V);
        return 2;
      }
      SO.FrameReadTimeoutMs = static_cast<int>(N);
    } else if (const char *V = Value("--serve-max-request-ms=")) {
      if (!parseDecimal(V, N) || N > uint64_t(INT64_MAX)) {
        std::fprintf(stderr, "relaxc: error: bad --serve-max-request-ms "
                             "value '%s'\n", V);
        return 2;
      }
      SO.MaxRequestTimeoutMs = static_cast<int64_t>(N);
    } else {
      std::fprintf(stderr, "relaxc: error: unknown --serve option '%s'\n",
                   A.c_str());
      return 2;
    }
  }
  Result<std::unique_ptr<VerifyServer>> S = VerifyServer::create(std::move(SO));
  if (!S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }
  // Readiness line: scripts poll for it and read the resolved address
  // (TCP port 0 becomes the real ephemeral port here).
  std::printf("relaxc: serving on %s\n", (*S)->boundAddress().c_str());
  std::fflush(stdout);
  return (*S)->run();
}

/// `verify <file> --connect=<addr>`: the thin client. Reads the file
/// locally (so a missing file is diagnosed with local semantics), ships
/// bytes plus configuration, and mirrors the daemon's streams and exit
/// status. A capacity refusal (retryable) is retried with backoff.
int runConnectVerify(const CliOptions &Opts) {
  SourceManager SM;
  if (Status S = SM.loadFile(Opts.File); !S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }
  VerifyWireRequest Req;
  static_cast<VerifyConfig &>(Req) = Opts.Config;
  Req.FileName = Opts.File;
  Req.Source = SM.buffer();
  const std::string Wire = serializeVerifyRequest(Req);

  for (int Attempt = 0;; ++Attempt) {
    Result<std::unique_ptr<Transport>> C =
        connectSocket(Opts.Connect, /*TimeoutMs=*/10'000);
    if (!C.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", C.message().c_str());
      return 2;
    }
    // A daemon at capacity writes its retryable refusal and closes
    // without reading the request, so this send can hit EPIPE with the
    // refusal still buffered on our side. Fall through to the read
    // instead of bailing on a send failure.
    std::string SendError;
    if (Status S = (*C)->send(Wire); !S.ok())
      SendError = S.message();
    // The daemon enforces the request deadline; the client waits it out
    // (plus slack for queueing) rather than racing it with its own.
    FrameRead F = (*C)->recvMs(-1);
    if (!F.ok()) {
      if (!SendError.empty() && Attempt < 40) {
        // The daemon closed before reading the request, so nothing was
        // processed and retrying is sound.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (!SendError.empty()) {
        std::fprintf(stderr, "relaxc: error: request to '%s' failed: %s\n",
                     Opts.Connect.c_str(), SendError.c_str());
        return 2;
      }
      std::fprintf(stderr,
                   "relaxc: error: no response from '%s': %s\n",
                   Opts.Connect.c_str(),
                   F.eof() ? "connection closed" : F.Message.c_str());
      return 2;
    }
    Result<VerifyWireResponse> R = parseVerifyResponse(F.Payload);
    if (!R.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", R.message().c_str());
      return 2;
    }
    if (R->IsError && R->Retryable && Attempt < 40) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (R->IsError) {
      std::fprintf(stderr, "relaxc: error: %s: %s\n", Opts.Connect.c_str(),
                   R->Error.c_str());
      return R->ExitStatus;
    }
    std::fputs(R->Diagnostics.c_str(), stderr);
    std::fputs(R->Report.c_str(), stdout);
    return R->ExitStatus;
  }
}

/// `verify`: runs \p Plan, adding what only the CLI has — the shard or
/// remote pool, the on-disk cache with --cache-verify, pool stats and
/// --explain.
int runVerify(const CliOptions &Opts, VerifyPlan &Plan, AstContext &Ctx,
              Program &Prog, DiagnosticEngine &Diags) {
  // --shards=N moves the pipeline's final tier out of process: the tier
  // chain ends in `shard`, and the pool's workers (this same executable
  // in --discharge-worker mode) run the replaced tier. Verdicts are
  // identical to the in-process chain by construction — the workers run
  // the same tiers under the same configuration.
  PortfolioOptions &PO = Plan.Portfolio;
  std::unique_ptr<DischargePool> Pool; // must outlive Plan.run()
  const char *PoolLabel = "shard pool";
  // Shared by --shards= and --remote-workers=: end the chain in a
  // `shard` tier and name the pipeline the workers run for the replaced
  // final tier. Returns false after diagnosing an unshardable chain.
  auto RewriteFinalTier = [&](const char *Flag) {
    if (PO.Tiers.empty())
      PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Smt};
    TierKind Final = PO.Tiers.back();
    if (Final == TierKind::Smt || Final == TierKind::Shard)
      PO.ShardWorkerPipeline = "z3";
    else if (Final == TierKind::Bounded)
      PO.ShardWorkerPipeline = "bounded";
    else {
      std::fprintf(stderr,
                   "relaxc: error: %s needs a final bounded or z3 "
                   "tier to move out of process (the pipeline ends in "
                   "'%s')\n",
                   Flag, tierKindName(Final));
      return false;
    }
    PO.Tiers.back() = TierKind::Shard;
    return true;
  };
  if (Opts.Shards > 0) {
    if (!RewriteFinalTier("--shards="))
      return 2;
    ShardPoolOptions SO;
    SO.Shards = Opts.Shards;
    SO.WorkerExe = Opts.ExePath;
    Result<std::unique_ptr<ShardPool>> PR = ShardPool::create(std::move(SO));
    if (!PR.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", PR.message().c_str());
      return 2;
    }
    Pool = std::move(*PR);
  } else if (!Opts.RemoteWorkers.empty()) {
    if (!RewriteFinalTier("--remote-workers="))
      return 2;
    RemotePoolOptions RO;
    for (size_t Pos = 0; Pos <= Opts.RemoteWorkers.size();) {
      size_t Comma = Opts.RemoteWorkers.find(',', Pos);
      if (Comma == std::string::npos)
        Comma = Opts.RemoteWorkers.size();
      RO.Endpoints.push_back(Opts.RemoteWorkers.substr(Pos, Comma - Pos));
      Pos = Comma + 1;
    }
    Result<std::unique_ptr<RemotePool>> PR = RemotePool::create(std::move(RO));
    if (!PR.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", PR.message().c_str());
      return 2;
    }
    Pool = std::move(*PR);
    PoolLabel = "remote pool";
  }
  PO.Pool = Pool.get();

  // --cache-dir=: the persistent verdict cache, fronting the scheduler's
  // shared result cache, keyed under the plan's fingerprint.
  std::unique_ptr<PersistentCache> PCache;
  if (!Opts.CacheDir.empty()) {
    PCache = std::make_unique<PersistentCache>(
        Opts.CacheDir, Plan.fingerprint(), Opts.CacheVerifyPpm);
    PCache->load();
  }

  VerifyOutcome Out = Plan.run(Ctx, Prog, Diags, PCache.get());
  // A cache that cannot be saved costs the next run solver time, never
  // this run its verdict.
  if (PCache)
    if (Status S = PCache->flush(); !S.ok())
      std::fprintf(stderr, "relaxc: warning: persistent cache not saved: "
                   "%s\n", S.message().c_str());
  if (Diags.hasErrors())
    std::fprintf(stderr, "%s", Diags.render().c_str());
  std::fputs(Out.Output.c_str(), stdout);
  if (Opts.Config.SolverStats && Pool) {
    PoolStats PS = Pool->stats();
    std::printf("  %s: %u workers, %llu requests, %llu respawns;"
                " served",
                PoolLabel, Pool->shardCount(),
                static_cast<unsigned long long>(PS.Requests),
                static_cast<unsigned long long>(PS.Respawns));
    for (uint64_t N : PS.PerWorker)
      std::printf(" %llu", static_cast<unsigned long long>(N));
    std::printf("\n");
    if (PS.Failures > 0 || PS.Quarantines > 0)
      std::printf("  shard health: %llu failed attempt(s), %llu "
                  "quarantine(s)\n",
                  static_cast<unsigned long long>(PS.Failures),
                  static_cast<unsigned long long>(PS.Quarantines));
    if (PS.Degraded || PS.DegradedFallbacks > 0)
      std::printf("  shard pool degraded: %llu request(s) answered by "
                  "the in-process tail\n",
                  static_cast<unsigned long long>(PS.DegradedFallbacks));
  }
  if (!Opts.Explain.empty() && !printExplain(Out.Report, Opts.Explain, Ctx))
    return 2;
  return Out.ExitStatus;
}

int runExecute(const CliOptions &Opts, const VerifyPlan &Plan,
               AstContext &Ctx, Program &Prog, DiagnosticEngine &Diags) {
  Sema SemaPass(Prog, Diags);
  auto Info = SemaPass.run();
  if (!Info) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }
  std::unique_ptr<Solver> Backend = Plan.makeBackend(Ctx);
  std::unique_ptr<Oracle> O = makeOracle(Opts, Ctx, *Backend);
  Interp I(Prog, Ctx.symbols(), *O);
  State Init = Interp::zeroState(Prog, Opts.ArrayLen);
  SemanticsMode Mode = Opts.Semantics == "original" ? SemanticsMode::Original
                                                    : SemanticsMode::Relaxed;
  Outcome Out = I.run(Mode, Init);
  printOutcome(Ctx.symbols(), semanticsModeName(Mode), Out);
  return Out.ok() ? 0 : 1;
}

int runMonitor(const CliOptions &Opts, const VerifyPlan &Plan,
               AstContext &Ctx, Program &Prog, DiagnosticEngine &Diags) {
  Sema SemaPass(Prog, Diags);
  auto Info = SemaPass.run();
  if (!Info) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }
  std::unique_ptr<Solver> Backend = Plan.makeBackend(Ctx);

  RelateMap Gamma(Info->relateMap().begin(), Info->relateMap().end());
  PairRunner Runner(Prog, Ctx.symbols(), Gamma);

  unsigned CompatOk = 0, CompatBad = 0, OrigErr = 0, RelErr = 0, Stuck = 0;
  for (unsigned RunIdx = 0; RunIdx != Opts.Runs; ++RunIdx) {
    SolverOracle::Options OO;
    OO.Seed = Opts.Seed + RunIdx;
    SolverOracle OrigOracle(Ctx, *Backend, OO);
    SolverOracle::Options RO;
    RO.Seed = Opts.Seed + 7919 * (RunIdx + 1);
    SolverOracle RelOracle(Ctx, *Backend, RO);
    Result<State> Init = randomInitialState(Ctx, Prog, *Backend,
                                            Opts.Seed + 31 * RunIdx,
                                            Opts.ArrayLen);
    if (!Init.ok()) {
      std::fprintf(stderr, "run %u: %s\n", RunIdx, Init.message().c_str());
      ++Stuck;
      continue;
    }
    PairOutcome P = Runner.run(*Init, OrigOracle, RelOracle);
    if (P.Orig.Kind == OutcomeKind::Stuck ||
        P.Rel.Kind == OutcomeKind::Stuck) {
      ++Stuck;
      continue;
    }
    OrigErr += P.origErred() ? 1 : 0;
    RelErr += P.relErred() ? 1 : 0;
    if (P.Orig.ok() && P.Rel.ok()) {
      if (P.Compat.Compatible)
        ++CompatOk;
      else {
        ++CompatBad;
        std::printf("run %u: INCOMPATIBLE — %s\n", RunIdx,
                    P.Compat.Reason.c_str());
      }
    }
  }
  std::printf("monitor: %u runs, %u compatible pairs, %u incompatible, "
              "%u original errors, %u relaxed errors, %u stuck\n",
              Opts.Runs, CompatOk, CompatBad, OrigErr, RelErr, Stuck);
  return CompatBad == 0 ? 0 : 1;
}

int runDumpVCs(const CliOptions &Opts, AstContext &Ctx, Program &Prog,
               DiagnosticEngine &Diags) {
  Sema SemaPass(Prog, Diags);
  auto Info = SemaPass.run();
  if (!Info) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }
  VCGenOptions GO;
  GO.CheckSafety = !Opts.Config.NoSafety;
  Printer P(Ctx.symbols());

  // The Verifier's own passes, so dumped ids match `--explain`.
  VCSet OSet = Verifier::originalPass(Ctx, Prog, Diags, GO);
  VCSet RSet = Verifier::relaxedPass(Ctx, Prog, *Info, Diags, GO);

  Z3Solver SmtPrinter(Ctx.symbols());
  auto Dump = [&](const char *Title, const VCSet &Set) {
    std::printf("== %s: %zu VCs ==\n", Title, Set.VCs.size());
    for (const VC &C : Set.VCs) {
      std::string ProcPrefix =
          !C.Proc.empty() && C.Proc != "main" ? C.Proc + ": " : "";
      std::printf("[%s/%s] %s%s (line %u): %s\n  %s\n",
                  judgmentKindName(C.Judgment),
                  C.Kind == VCKind::Validity ? "valid" : "sat",
                  ProcPrefix.c_str(), C.Rule.c_str(), C.Loc.Line,
                  C.Description.c_str(), P.print(C.Formula).c_str());
      if (Opts.SmtLib) {
        // Validity VCs are emitted negated, so `unsat` means proved —
        // the conventional SMT-LIB phrasing of a proof obligation.
        std::vector<const BoolExpr *> Query = {
            C.Kind == VCKind::Validity ? Ctx.notExpr(C.Formula) : C.Formula};
        Result<std::string> Script = SmtPrinter.toSmtLib(Query);
        if (Script.ok())
          std::printf("  ; SMT-LIB (%s expected)\n%s\n",
                      C.Kind == VCKind::Validity ? "unsat" : "sat",
                      Script->c_str());
      }
    }
  };
  Dump("|-o", OSet);
  Dump("|-r", RSet);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // A peer vanishing mid-write (a dead shard worker, a closed pool) must
  // surface as a diagnosed EPIPE from the framing layer, not kill the
  // process. The pool ignores SIGPIPE again at creation (belt and
  // braces); this covers the worker side and every other write path.
  ::signal(SIGPIPE, SIG_IGN);
  if (Status S = FaultRegistry::instance().armFromEnvironment(); !S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }

  // The verification daemon: `relaxc --serve=<addr> [daemon flags]`.
  // Dispatched before the regular grammar — a daemon has no file.
  if (Argc >= 2 && std::strncmp(Argv[1], "--serve=", 8) == 0)
    return runServe(Argc, Argv);

  // The hidden worker mode of the sharded discharge tier: no file, no
  // command — just the frame loop over stdin/stdout (or, with
  // --listen=<addr>, over accepted socket connections). Workers accept
  // --faults= directly so tests can arm them via pool WorkerArgs without
  // touching the parent's environment.
  if (Argc >= 2 && std::strcmp(Argv[1], "--discharge-worker") == 0) {
    std::string ListenAddr;
    for (int I = 2; I < Argc; ++I) {
      if (std::strncmp(Argv[I], "--faults=", 9) == 0) {
        if (Status S = FaultRegistry::instance().arm(Argv[I] + 9); !S.ok()) {
          std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
          return 2;
        }
      } else if (std::strncmp(Argv[I], "--listen=", 9) == 0) {
        ListenAddr = Argv[I] + 9;
      }
    }
    if (!ListenAddr.empty())
      return runDischargeWorkerListen(ListenAddr);
    PipeTransport Stdio(/*ReadFd=*/0, /*WriteFd=*/1, /*OwnsFds=*/false);
    ShardWorkerState W;
    return serveShardFrames(Stdio, W);
  }

  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    printUsage();
    return 2;
  }
  if (!Opts.Faults.empty()) {
    if (Status S = FaultRegistry::instance().arm(Opts.Faults); !S.ok()) {
      std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
      return 2;
    }
    // Shard workers (respawns of this executable) inherit the spec.
    ::setenv("RELAXC_FAULTS", Opts.Faults.c_str(), 1);
  }
  Opts.ExePath = currentExecutablePath(Argv[0]);

  // Client mode: the whole job runs in the daemon; nothing below (parse,
  // contexts, pools) happens locally.
  if (!Opts.Connect.empty())
    return runConnectVerify(Opts);
  // Cannot fail on a parsed config; checked all the same.
  Result<VerifyPlan> Plan = VerifyPlan::create(Opts.Config);
  if (!Plan.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", Plan.message().c_str());
    return 2;
  }

  SourceManager SM;
  if (Status S = SM.loadFile(Opts.File); !S.ok()) {
    std::fprintf(stderr, "relaxc: error: %s\n", S.message().c_str());
    return 2;
  }
  DiagnosticEngine Diags;
  Diags.setFileName(Opts.File);
  AstContext Ctx;
  Parser P(Ctx, SM, Diags);
  std::optional<Program> Prog = P.parseProgram();
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 2;
  }

  if (Opts.Command == "verify")
    return runVerify(Opts, *Plan, Ctx, *Prog, Diags);
  if (Opts.Command == "run")
    return runExecute(Opts, *Plan, Ctx, *Prog, Diags);
  if (Opts.Command == "monitor")
    return runMonitor(Opts, *Plan, Ctx, *Prog, Diags);
  if (Opts.Command == "dump-vcs")
    return runDumpVCs(Opts, Ctx, *Prog, Diags);
  if (Opts.Command == "print") {
    Printer Pr(Ctx.symbols());
    std::printf("%s", Pr.print(*Prog).c_str());
    return 0;
  }
  printUsage();
  return 2;
}
