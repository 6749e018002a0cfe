//===- driver_cli_tests.cpp - Driver exit codes and --explain paths ------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Runs the real relaxc binary (built alongside the tests) through the
// Subprocess layer and pins its observable CLI contract:
//
//  * verify exit codes: 0 verified, 1 refuted, 2 usage/parse/static
//    error, 3 not-verified-but-nothing-refuted (solver gave up);
//  * --explain= rejection paths: malformed specs and out-of-range ids
//    are diagnosed on stderr and exit 2;
//  * --shards= validation;
//  * deadlines: an expired --timeout-ms / --vc-timeout-ms budget exits 3
//    with "deadline" in the report, never hangs;
//  * fault injection: a fully dead worker pool degrades to the
//    in-process tail ("shard pool degraded" under --solver-stats) with
//    the fault-free exit code, and a bad --faults= spec exits 2;
//  * one verify configuration: on every case study and a spread of
//    configs, `relaxc verify`, the same flags through `--connect` to a
//    daemon, and runVerifyJob give the same report (timings aside) and
//    exit code, and the CLI's --cache-dir is found and answered under
//    verifyJobFingerprint;
//  * dump-vcs: its per-pass VC counts equal the verify report's, and
//    every `--smtlib` script parses and answers as its comment expects.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "server/VerifyServer.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#if RELAXC_HAVE_Z3
#include <z3++.h>
#endif

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <regex>

#include <poll.h>
#include <unistd.h>

using namespace relax;

namespace {

struct RunResult {
  int Exit = -1;
  std::string Output; ///< stdout + stderr, merged
};

/// Runs the driver with \p Args, returning its exit code and its output
/// (stdout + stderr, or stdout alone without \p MergeStderr). The 60s
/// frame-less read bounds a wedged driver.
RunResult runDriver(const std::vector<std::string> &Args,
                    bool MergeStderr = true) {
  RunResult R;
  Subprocess P;
  Status S = P.spawn(relax::test::driverPath(), Args, MergeStderr);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
  if (!S.ok())
    return R;
  P.closeStdin();
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(P.readFd(), Buf, sizeof(Buf));
    if (N <= 0)
      break;
    R.Output.append(Buf, static_cast<size_t>(N));
  }
  R.Exit = P.waitForExit();
  return R;
}

/// Writes \p Source to a temp .rlx file; unlinked on destruction.
struct TempProgram {
  std::string Path;
  explicit TempProgram(const std::string &Source) {
    char Name[] = "/tmp/relaxc_cli_XXXXXX";
    int Fd = ::mkstemp(Name);
    EXPECT_GE(Fd, 0);
    if (Fd < 0)
      return;
    ssize_t Ignored = ::write(Fd, Source.data(), Source.size());
    (void)Ignored;
    ::close(Fd);
    Path = Name;
  }
  ~TempProgram() {
    if (!Path.empty())
      ::unlink(Path.c_str());
  }
};

// A Z3-free pipeline keeps every pin green in both build configurations.
const char *BoundedPipeline = "--pipeline=simplify,bounded";

TEST(DriverExitCodes, VerifiedIsZero) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x >= 0 && x <= 2);\n"
                "{ x = x + 1; assert x >= 1; }\n");
  RunResult R = runDriver({"verify", P.Path, BoundedPipeline});
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("VERIFIED"), std::string::npos) << R.Output;
}

TEST(DriverExitCodes, RefutedIsOne) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 1; }\n");
  RunResult R = runDriver({"verify", P.Path, BoundedPipeline});
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find("failed"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("counterexample"), std::string::npos) << R.Output;
}

TEST(DriverExitCodes, GaveUpOnlyIsThree) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The relaxed pass freshens the relax into an existential; a one-step
  // quantifier budget forces a deterministic give-up, and nothing in the
  // program is refutable — so the failure class is "solver too weak".
  TempProgram P("int x;\nrequires (x >= 0);\n"
                "{ relax (x) st (x >= 0); assert x >= 0; }\n");
  RunResult R = runDriver(
      {"verify", P.Path, "--pipeline=bounded", "--bounded-steps=1"});
  EXPECT_EQ(R.Exit, 3) << R.Output;
  EXPECT_NE(R.Output.find("undecided"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("NOT VERIFIED"), std::string::npos) << R.Output;
}

TEST(DriverExitCodes, StaticErrorIsTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  { // parse error
    TempProgram P("int x; { this is not rlx }\n");
    EXPECT_EQ(runDriver({"verify", P.Path, BoundedPipeline}).Exit, 2);
  }
  { // sema error (relate label reuse)
    TempProgram P("int x;\n{ relate l : x<o> == x<r>; "
                  "relate l : x<o> == x<r>; }\n");
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline});
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("duplicate relate label"), std::string::npos)
        << R.Output;
  }
}

TEST(DriverExplain, MalformedSpecIsRejected) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 0; }\n");
  for (const char *Bad : {"--explain=q:1", "--explain=o:abc", "--explain=o:",
                          "--explain=5", "--explain=r5"}) {
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --explain id"), std::string::npos)
        << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("expected o:<n>, r:<n>, or proc:<name>"),
              std::string::npos)
        << Bad << "\n" << R.Output;
  }
}

TEST(DriverExplain, OutOfRangeIdIsRejected) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 0; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=o:999"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("no obligation o:999"), std::string::npos)
      << R.Output;
  RunResult R2 =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=r:999"});
  EXPECT_EQ(R2.Exit, 2) << R2.Output;
  EXPECT_NE(R2.Output.find("no obligation r:999"), std::string::npos)
      << R2.Output;
}

TEST(DriverExplain, ValidIdPrintsProvenanceAndKeepsVerifyExitCode) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 1; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=o:0"});
  // The refuted exit code survives a successful --explain.
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find("== obligation o:0 =="), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("judgment:"), std::string::npos) << R.Output;
}

// A small module for the per-procedure driver surfaces: f is summarized
// once, main instantiates it.
const char *ModularSource = "int x;\n"
                            "proc f() modifies (x)\n"
                            "  requires (x >= 0 && x <= 2); ensures (x >= 1);\n"
                            "{ x = x + 1; }\n"
                            "proc main() requires (x == 0); { call f(); }\n";

TEST(DriverExplain, ProcFilterListsObligationsAndKeepsExitCode) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=proc:f"});
  // The verify exit code survives a successful filter, whatever the
  // bounded tier settled.
  EXPECT_TRUE(R.Exit == 0 || R.Exit == 3) << R.Output;
  EXPECT_NE(R.Output.find("obligations of procedure 'f'"), std::string::npos)
      << R.Output;
  // Every listed obligation belongs to f; the consequence rule is f's
  // summary check.
  EXPECT_NE(R.Output.find("consequence"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("call ("), std::string::npos)
      << "main's call-site obligation leaked into proc:f\n"
      << R.Output;
}

TEST(DriverExplain, UnknownProcFilterIsExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=proc:nope"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("no obligations for procedure 'nope'"),
            std::string::npos)
      << R.Output;
}

TEST(DriverExplain, EmptyProcFilterIsExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--explain=proc:"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("bad --explain filter"), std::string::npos)
      << R.Output;
}

TEST(DriverSolverStats, ReportsPerProcedureObligationCounts) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(ModularSource);
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--solver-stats"});
  EXPECT_NE(R.Output.find("obligations by procedure:"), std::string::npos)
      << R.Output;
  EXPECT_TRUE(std::regex_search(
      R.Output, std::regex("f: [1-9][0-9]* \\|-o, [0-9]+ \\|-r")))
      << R.Output;
  EXPECT_TRUE(std::regex_search(
      R.Output, std::regex("main: [1-9][0-9]* \\|-o, [1-9][0-9]* \\|-r")))
      << R.Output;
}

TEST(DriverDeadlines, ExpiredGlobalDeadlineIsExitThree) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // --timeout-ms=0 is already expired: a program that verifies with time
  // on the clock must instead settle everything as deadline gave-ups —
  // complete report, "deadline" named, exit code 3, never a hang.
  TempProgram P("int x;\nrequires (x >= 0 && x <= 2);\n"
                "{ x = x + 1; assert x >= 1; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--timeout-ms=0"});
  EXPECT_EQ(R.Exit, 3) << R.Output;
  EXPECT_NE(R.Output.find("deadline"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("NOT VERIFIED"), std::string::npos) << R.Output;

  // The per-VC flag behaves identically when it can never be met.
  RunResult R2 =
      runDriver({"verify", P.Path, BoundedPipeline, "--vc-timeout-ms=0"});
  EXPECT_EQ(R2.Exit, 3) << R2.Output;
  EXPECT_NE(R2.Output.find("deadline"), std::string::npos) << R2.Output;

  // And with a generous budget the same program still verifies.
  RunResult R3 =
      runDriver({"verify", P.Path, BoundedPipeline, "--timeout-ms=60000"});
  EXPECT_EQ(R3.Exit, 0) << R3.Output;
}

TEST(DriverDeadlines, BadTimeoutValuesAreExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  for (const char *Bad : {"--timeout-ms=abc", "--timeout-ms=",
                          "--vc-timeout-ms=-5", "--vc-timeout-ms=x"}) {
    RunResult R = runDriver({"verify", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
  }
}

TEST(DriverFaults, DegradedPoolIsReportedAndVerdictUnchanged) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Workers die on every request (the --faults spec reaches them via the
  // RELAXC_FAULTS environment the driver exports): the shard tier must
  // degrade to its in-process tail, say so in --solver-stats, and keep
  // the fault-free exit code.
  TempProgram P("int x;\nrequires (x >= 0 && x <= 2);\n"
                "{ x = x + 1; assert x >= 1; }\n");
  RunResult Clean = runDriver({"verify", P.Path,
                               "--pipeline=simplify,bounded,shard",
                               "--shards=1", "--solver-stats"});
  RunResult Faulted = runDriver({"verify", P.Path,
                                 "--pipeline=simplify,bounded,shard",
                                 "--shards=1", "--solver-stats",
                                 "--faults=seed=7,worker-exit=1"});
  EXPECT_EQ(Faulted.Exit, Clean.Exit) << Faulted.Output;
  EXPECT_NE(Faulted.Output.find("shard pool degraded"), std::string::npos)
      << Faulted.Output;
  EXPECT_EQ(Clean.Output.find("shard pool degraded"), std::string::npos)
      << Clean.Output;
}

TEST(DriverFaults, BadFaultSpecIsExitTwo) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  RunResult R =
      runDriver({"verify", P.Path, BoundedPipeline, "--faults=bogus"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("bad fault spec"), std::string::npos) << R.Output;
}

TEST(DriverSeedFlag, RejectsNonDecimalValues) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // The old bare-strtoull parse mapped --seed=garbage to 0 and
  // --seed=12abc to 12, silently changing which runs a reported failure
  // reproduces. Strict now: diagnose and exit 2.
  TempProgram P("int x;\n{ skip; }\n");
  for (const char *Bad : {"--seed=12abc", "--seed=garbage", "--seed=",
                          "--seed=-1", "--seed=1e3"}) {
    RunResult R = runDriver({"run", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --seed value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
  for (const char *Bad : {"--runs=abc", "--runs=", "--runs=99999999999"}) {
    RunResult R = runDriver({"run", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --runs value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
}

TEST(DriverCacheFlags, RejectsBadValues) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  { // an empty directory cannot name a cache
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline,
                             "--cache-dir="});
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("bad --cache-dir value"), std::string::npos)
        << R.Output;
  }
  for (const char *Bad : {"--cache-verify=abc", "--cache-verify=",
                          "--cache-verify=1000001"}) {
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline,
                             "--cache-dir=/tmp/relaxc_cli_cache", Bad});
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bad --cache-verify value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
  { // sampling without a cache audits nothing — reject the contradiction
    RunResult R = runDriver({"verify", P.Path, BoundedPipeline,
                             "--cache-verify=1000"});
    EXPECT_EQ(R.Exit, 2) << R.Output;
    EXPECT_NE(R.Output.find("--cache-verify= requires --cache-dir="),
              std::string::npos)
        << R.Output;
  }
}

TEST(DriverShardsFlag, RejectsBadValues) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\n{ skip; }\n");
  for (const char *Bad : {"--shards=abc", "--shards=", "--shards=9999"}) {
    RunResult R = runDriver({"verify", P.Path, Bad});
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find("bad --shards value"), std::string::npos)
        << Bad << "\n" << R.Output;
  }
  // A simplify-only pipeline has no tier to move out of process.
  RunResult R = runDriver(
      {"verify", P.Path, "--pipeline=simplify", "--shards=2"});
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("needs a final bounded or z3 tier"),
            std::string::npos)
      << R.Output;
}

//===----------------------------------------------------------------------===//
// One verify configuration: CLI, served and in-process jobs agree
//===----------------------------------------------------------------------===//

/// A `--serve` daemon on a fresh Unix socket; SIGKILLed (and its socket
/// file removed) on destruction. Addr is empty when it never printed its
/// readiness line.
struct ServeDaemon {
  Subprocess Proc;
  std::string Path;
  std::string Addr;

  ServeDaemon() {
    static std::atomic<unsigned> Counter{0};
    Path = "/tmp/relaxc_cli_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".sock";
    if (!Proc.spawn(relax::test::driverPath(), {"--serve=unix:" + Path}).ok())
      return;
    std::string Line;
    Deadline D = Deadline::inMs(30'000);
    char C = 0;
    while (C != '\n' && !D.expired()) {
      pollfd P{Proc.readFd(), POLLIN, 0};
      if (::poll(&P, 1, D.clampTimeoutMs(-1)) <= 0 ||
          ::read(Proc.readFd(), &C, 1) != 1)
        break;
      Line.push_back(C);
    }
    const char *Tag = "serving on ";
    size_t At = Line.find(Tag);
    if (At != std::string::npos && C == '\n')
      Addr = Line.substr(At + std::strlen(Tag), Line.size() - 1 - At -
                                                   std::strlen(Tag));
  }
  ~ServeDaemon() {
    Proc.terminate();
    ::unlink(Path.c_str());
  }
};

std::string stripMs(const std::string &S) {
  static const std::regex MsRe("\\([0-9.]* ms\\)");
  return std::regex_replace(S, MsRe, "");
}

/// Sum of the report's "N undecided" counts (gave-ups are never cached,
/// so a warm run re-queries exactly those).
unsigned long undecided(const std::string &Report) {
  static const std::regex Re("([0-9]+) undecided");
  unsigned long N = 0;
  for (std::sregex_iterator It(Report.begin(), Report.end(), Re), End;
       It != End; ++It)
    N += std::stoul((*It)[1].str());
  return N;
}

struct ConfigRow {
  const char *Name;
  std::vector<std::string> Flags;
  std::function<void(VerifyWireRequest &)> Set;
  bool NeedsZ3;
};

const ConfigRow ConfigRows[] = {
    {"Default", {}, [](VerifyWireRequest &) {}, true},
    {"Tiered",
     {"--pipeline=simplify,bounded,z3"},
     [](VerifyWireRequest &R) { R.Pipeline = "simplify,bounded,z3"; },
     true},
    {"BoundedPipeline",
     {"--pipeline=simplify,bounded"},
     [](VerifyWireRequest &R) { R.Pipeline = "simplify,bounded"; },
     false},
    {"SolverBounded",
     {"--solver=bounded"},
     [](VerifyWireRequest &R) { R.SolverName = "bounded"; },
     false},
    {"NoSafety",
     {"--no-safety"},
     [](VerifyWireRequest &R) { R.NoSafety = true; },
     true},
    {"OriginalOnlyVerbose",
     {"--original-only", "--verbose"},
     [](VerifyWireRequest &R) {
       R.OriginalOnly = true;
       R.Verbose = true;
     },
     true},
    {"Jobs4", {"--jobs=4"}, [](VerifyWireRequest &R) { R.Jobs = 4; }, true},
    {"SolverStats",
     {"--solver-stats"},
     [](VerifyWireRequest &R) { R.SolverStats = true; },
     true},
};

const char *CaseStudies[] = {"swish.rlx",         "water.rlx",
                             "lu.rlx",            "task_skip.rlx",
                             "sampling.rlx",      "memoize.rlx",
                             "water_modular.rlx", "shared_callee.rlx"};

class VerifyConfigIdentity : public ::testing::TestWithParam<ConfigRow> {};

TEST_P(VerifyConfigIdentity, CliServedAndJobAgreeOnCaseStudies) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  const ConfigRow &Row = GetParam();
  if (Row.NeedsZ3)
    RELAXC_SKIP_WITHOUT_Z3();
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    const std::string Path = relax::test::examplePath(Name);
    const std::string Tag = std::string(Row.Name) + " " + Name;
    VerifyWireRequest Req;
    Req.FileName = Path;
    Req.Source = Source;
    Row.Set(Req);
    const std::string Fp = verifyJobFingerprint(Req);

    // The job runs as the daemon runs it: behind a per-fingerprint
    // in-memory cache, which reports like the CLI's cold --cache-dir.
    PersistentCache Mem("", Fp, /*VerifyPpm=*/0);
    VerifyWireResponse Job = runVerifyJob(Req, &Mem);
    ASSERT_FALSE(Job.IsError) << Tag << ": " << Job.Error;

    char DirTemplate[] = "/tmp/relaxc_cli_cache_XXXXXX";
    ASSERT_NE(::mkdtemp(DirTemplate), nullptr);
    const std::string Dir = DirTemplate;
    std::vector<std::string> Args = {"verify", Path};
    Args.insert(Args.end(), Row.Flags.begin(), Row.Flags.end());
    std::vector<std::string> CliArgs = Args;
    CliArgs.push_back("--cache-dir=" + Dir);
    RunResult Cli = runDriver(CliArgs, /*MergeStderr=*/false);
    EXPECT_EQ(Cli.Exit, Job.ExitStatus) << Tag;
    EXPECT_EQ(stripMs(Cli.Output), stripMs(Job.Report)) << Tag;

    {
      ServeDaemon D;
      ASSERT_FALSE(D.Addr.empty()) << Tag << ": daemon never became ready";
      std::vector<std::string> ConnectArgs = Args;
      ConnectArgs.push_back("--connect=" + D.Addr);
      RunResult Served = runDriver(ConnectArgs, /*MergeStderr=*/false);
      EXPECT_EQ(Served.Exit, Job.ExitStatus) << Tag;
      EXPECT_EQ(stripMs(Served.Output), stripMs(Job.Report)) << Tag;
    }

    // The CLI's on-disk cache, loaded under the job's fingerprint, answers
    // the same config: nothing new to store, and when every obligation
    // settled (gave-ups are never stored), no lookup misses, so no query
    // reaches a solver.
    PersistentCache Warm(Dir, Fp, /*VerifyPpm=*/0);
    Warm.load();
    VerifyWireRequest WarmReq = Req;
    WarmReq.SolverStats = true;
    VerifyWireResponse Again = runVerifyJob(WarmReq, &Warm);
    EXPECT_EQ(Again.ExitStatus, Job.ExitStatus) << Tag;
    EXPECT_GT(Warm.stats().Loaded, 0u)
        << Tag << ": the CLI's cache was not found under verifyJobFingerprint";
    EXPECT_EQ(Warm.stats().Appended, 0u) << Tag << "\n" << Again.Report;
    if (undecided(Job.Report) == 0)
      EXPECT_EQ(Warm.stats().Misses, 0u) << Tag << "\n" << Again.Report;
    std::filesystem::remove_all(Dir);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, VerifyConfigIdentity, ::testing::ValuesIn(ConfigRows),
    [](const ::testing::TestParamInfo<ConfigRow> &I) {
      return std::string(I.param.Name);
    });

//===----------------------------------------------------------------------===//
// dump-vcs
//===----------------------------------------------------------------------===//

/// The first "<N> VCs" count after \p Title in \p Text, or -1.
long vcCount(const std::string &Text, const std::string &Title) {
  size_t At = Text.find(Title);
  if (At == std::string::npos)
    return -1;
  std::smatch M;
  std::string Rest = Text.substr(At + Title.size());
  if (!std::regex_search(Rest, M, std::regex("^[^0-9\n]*([0-9]+) VCs")))
    return -1;
  return std::stol(M[1].str());
}

TEST(DriverDumpVcs, CountsMatchTheVerifyReport) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  for (const char *Name : CaseStudies) {
    const std::string Path = relax::test::examplePath(Name);
    RunResult Dump = runDriver({"dump-vcs", Path}, /*MergeStderr=*/false);
    ASSERT_EQ(Dump.Exit, 0) << Name;
    RunResult Verify = runDriver({"verify", Path, "--pipeline=simplify"},
                                 /*MergeStderr=*/false);
    long O = vcCount(Dump.Output, "== |-o:");
    long R = vcCount(Dump.Output, "== |-r:");
    EXPECT_GT(O, 0) << Name;
    EXPECT_GT(R, 0) << Name;
    EXPECT_EQ(O, vcCount(Verify.Output, "|-o (")) << Name;
    EXPECT_EQ(R, vcCount(Verify.Output, "|-r (")) << Name;
  }
}

TEST(DriverDumpVcs, SmtLibScriptsParseAndAnswerAsExpected) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_Z3();
#if RELAXC_HAVE_Z3
  const std::string Marker = "  ; SMT-LIB (";
  const std::string CheckSat = "(check-sat)\n";
  size_t Scripts = 0;
  for (const char *Name : CaseStudies) {
    RunResult Dump = runDriver(
        {"dump-vcs", relax::test::examplePath(Name), "--smtlib"},
        /*MergeStderr=*/false);
    ASSERT_EQ(Dump.Exit, 0) << Name;
    const std::string &Out = Dump.Output;
    for (size_t At = Out.find(Marker); At != std::string::npos;
         At = Out.find(Marker, At + 1)) {
      size_t Open = At + Marker.size();
      size_t Close = Out.find(" expected)\n", Open);
      ASSERT_NE(Close, std::string::npos) << Name;
      std::string Expected = Out.substr(Open, Close - Open);
      size_t Begin = Out.find('\n', Close) + 1;
      size_t End = Out.find(CheckSat, Begin);
      ASSERT_NE(End, std::string::npos) << Name;
      std::string Script = Out.substr(Begin, End + CheckSat.size() - Begin);
      ++Scripts;
      z3::context C;
      z3::solver S(C);
      try {
        S.add(C.parse_string(Script.c_str()));
      } catch (const z3::exception &E) {
        ADD_FAILURE() << Name << ": " << E.msg() << "\n" << Script;
        continue;
      }
      z3::check_result Got = S.check();
      EXPECT_EQ(Got == z3::unsat ? "unsat" : Got == z3::sat ? "sat" : "unknown",
                Expected)
          << Name << "\n" << Script;
    }
  }
  EXPECT_GT(Scripts, 100u) << "the dumps carried too few SMT-LIB scripts";
#endif
}

// The persistent cache keys verdicts by this fingerprint. A tiered
// pipeline's key carries the probe-budget rule, so cache files written
// before non-final bounded tiers ran with 1/16 of the budgets miss
// instead of serving verdicts computed under the old budgets. The single
// backend's key does not change.
TEST(VerifyFingerprint, TieredKeyCarriesTheProbeBudget) {
  VerifyWireRequest Tiered;
  Tiered.Pipeline = "simplify,bounded,z3";
  const std::string Before =
      std::string("pipeline=simplify,bounded,z3 bounded=-6,6,3,-2,2,100000,"
                  "200000,exhaust-unsat,search,learn,restarts,"
                  "max-nogoods=10000 final-step-factor=16 smt=") +
      (relax::test::haveZ3() ? "z3" : "bounded-full");
  EXPECT_NE(verifyJobFingerprint(Tiered), Before);
  EXPECT_EQ(verifyJobFingerprint(Tiered), Before + " probe-budget=1/16");
  EXPECT_EQ(verifyJobFingerprint(VerifyWireRequest()), "backend=z3");
}

// --explain's escalation trail names the budget each bounded tier itself
// ran with: the non-final tier's are 1/16 of the configured ones (100000
// candidates, 200000 steps by default), bounded-full's 16 times them.
TEST(DriverExplain, TrailNamesTheBudgetTheTierRanWith) {
  const std::string Water = relax::test::examplePath("water.rlx");
  const std::string Tiered = "--pipeline=simplify,bounded,z3";
  auto Trail = [&](std::vector<std::string> Args) {
    Args.insert(Args.begin(), {"verify", Water, Tiered});
    std::string Out = runDriver(Args).Output;
    size_t At = Out.find("escalation trail: ");
    return At == std::string::npos ? Out
                                   : Out.substr(At, Out.find('\n', At) - At);
  };
  if (relax::test::haveZ3()) {
    EXPECT_EQ(Trail({"--explain=r:0"}),
              "escalation trail: simplify: did not fold to a constant; "
              "bounded: quantifier-step budget (12500) tripped");
    EXPECT_EQ(Trail({"--explain=r:4"}),
              "escalation trail: simplify: did not fold to a constant; "
              "bounded: candidate budget (6250) tripped");
    return;
  }
  // Without Z3 the z3 tier is bounded-full.
  EXPECT_EQ(Trail({"--bounded-steps=1000", "--explain=r:0"}),
            "escalation trail: simplify: did not fold to a constant; "
            "bounded: quantifier-step budget (62) tripped; "
            "bounded-full: quantifier-step budget (16000) tripped");
}

} // namespace
