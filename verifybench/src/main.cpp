//===- main.cpp - The relaxc verification benchmark -----------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// verifybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --root <checkout> --work-dir <dir> [--git-sha <sha>]
//             [--data-dir <dir>]
//
// Every workload is a closed loop with one caller, which sends its next
// request only after the previous reply. Verifications run in blocks of about BlockMs,
// each block bracketed by runs of the reference probe; a verification's
// probe-relative time is its time divided by the mean of the two probes
// around its block. With --trace 0 the last stdout line carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a run that alternates untraced passes with traced layer-by-layer
// replays. See verifybench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Probe.h"
#include "Trace.h"
#include "Workloads.h"

#include "support/Random.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

using namespace relax;
using namespace relax::bench;

namespace {

constexpr double BlockMs = 150;
constexpr unsigned SetupReps = 3;
/// The probe's median time on the reference machine (README.md). setup_s
/// is each set-up's time divided by the probe runs around it, in seconds
/// at this probe speed, so the machine's slow phases cancel as they do in
/// the verification ratios.
constexpr double NominalProbeMs = 35;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";
  std::string WorkDir = ".bench_build";
  std::string GitSha = "unknown";
  std::string DataDir; ///< known answers; default <root>/verifybench/data
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--root")
      A.Root = V;
    else if (K == "--work-dir")
      A.WorkDir = V;
    else if (K == "--git-sha")
      A.GitSha = V;
    else if (K == "--data-dir")
      A.DataDir = V;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0 && (Argc % 2) == 1;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / V.size());
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string L;
  while (std::getline(In, L))
    if (L.rfind("model name", 0) == 0) {
      size_t C = L.find(':');
      return C == std::string::npos ? L : L.substr(C + 2);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      O += C;
  }
  return O;
}

/// The caller's seeded visiting order: a fresh permutation of the corpus
/// every cycle, so programs get equal sample counts.
class Order {
public:
  Order(size_t N, uint64_t Seed) : Rng(Seed), Perm(N), Pos(N) {
    std::iota(Perm.begin(), Perm.end(), 0);
  }
  size_t next() {
    if (Pos == Perm.size()) {
      for (size_t I = Perm.size(); I > 1; --I)
        std::swap(Perm[I - 1], Perm[Rng.next() % I]);
      Pos = 0;
    }
    return Perm[Pos++];
  }
  /// Starts a fresh cycle at the next call.
  void restart() { Pos = Perm.size(); }

private:
  SplitMix64 Rng;
  std::vector<size_t> Perm;
  size_t Pos;
};

struct Workload {
  std::string Name;
  Mode M;
  /// The percentile verify_rel_tail reports. It is fixed per workload, not
  /// chosen from the sample count, which moves with relaxc's speed. Each
  /// keeps at least ten samples beyond it in 20-second runs on the
  /// reference machine and sits inside one program's share of the pool,
  /// not on the edge between two programs, where the value jumps with
  /// each program's extreme samples (README.md).
  double TailPct;
};

const Workload Workloads[] = {
    {"proofs_z3", Mode::Z3, 95},
    {"proofs_tiered", Mode::Tiered, 70},
    {"refute_mixed", Mode::Tiered, 75},
    {"serve_warm", Mode::Serve, 99},
};

/// Daemon connections. Timed requests use the first; the traced run also
/// measures what alternating between the two costs (README.md).
constexpr unsigned ServeConnections = 2;

/// Everything a run measures.
struct Run {
  const Workload *W = nullptr;
  std::vector<CorpusProgram> Corpus;
  Probe Ref;
  ServeRig Rig;
  std::string SocketPath;
  Order Visit{0, 0};

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Refusals = 0;
  uint64_t WireBytes = 0;
  uint64_t WireRequests = 0;
  std::vector<double> Probes;
  std::vector<std::vector<double>> Raw, Rel; // per program, untraced
  std::vector<std::optional<Counters>> Exact; // per program, first seen
  std::vector<std::string> Mismatches;

  /// One verification, untraced. Counters are checked against the first
  /// ones seen for the program in the local modes; serve mode checks the
  /// daemon's in checkDaemon().
  Timed verify(size_t I) {
    if (W->M == Mode::Serve)
      return Rig.verify(0, Corpus[I]);
    Counters C;
    Timed T = verifyLocal(W->M, Corpus[I], &C);
    checkCounters(I, C, "untraced");
    return T;
  }

  void checkCounters(size_t I, const Counters &C, const char *What) {
    if (!Exact[I]) {
      Exact[I] = C;
      return;
    }
    if (*Exact[I] == C)
      return;
    std::string Msg = Corpus[I].Name + " (" + What + "):";
    for (const auto &[K, V] : C) {
      auto It = Exact[I]->find(K);
      uint64_t Was = It == Exact[I]->end() ? 0 : It->second;
      if (Was != V)
        Msg += " " + K + " " + std::to_string(Was) + " vs " +
               std::to_string(V);
    }
    Mismatches.push_back(Msg);
  }

  void tally(const Timed &T) {
    ++Attempted;
    if (!T.Correct || T.Refused)
      ++Failed;
    Refusals += T.Refused ? 1 : 0;
    if (T.WireBytes) {
      WireBytes += T.WireBytes;
      ++WireRequests;
    }
  }

  /// One set-up: daemon construction (serve) plus a warm-up pass over
  /// the corpus, in order.
  double setupOnce(std::string &Error) {
    Clock::time_point Start = Clock::now();
    if (W->M == Mode::Serve &&
        !Rig.start(SocketPath, ServeConnections, Error))
      return -1;
    for (size_t I = 0; I != Corpus.size(); ++I)
      tally(verify(I));
    return msBetween(Start, Clock::now()) / 1000;
  }

  /// Serve mode: an untimed pass that asks the warm daemon for its
  /// `--solver-stats` counters and checks them against the first ones seen
  /// for each program; the traced replays are checked against the same.
  /// A warm daemon must answer every obligation from its cache. The
  /// persistent cache's hit count is a running total, so a first request
  /// reads it before the pass.
  void checkDaemon() {
    Counters Prime;
    tally(Rig.verify(0, Corpus[0], &Prime));
    uint64_t Total = Prime["support.pcache.hits_total"];
    for (size_t I = 0; I != Corpus.size(); ++I) {
      Counters C;
      tally(Rig.verify(0, Corpus[I], &C));
      auto It = C.find("support.pcache.hits_total");
      auto Queries = C.find("solver.z3.queries");
      if (It == C.end() || Queries == C.end()) {
        Mismatches.push_back(Corpus[I].Name +
                             " (daemon): no solver stats in the reply");
        continue;
      }
      C["support.pcache.hits"] = It->second - Total;
      Total = It->second;
      C.erase(It);
      if (Queries->second != 0)
        Mismatches.push_back(Corpus[I].Name +
                             " (daemon): the warm daemon reached the solver");
      checkCounters(I, C, "daemon");
    }
  }

  /// Runs blocks until \p End, or — when \p OnePass — until the caller
  /// has finished one cycle of its order. Appends untraced samples.
  void measure(Clock::time_point End, bool OnePass, double &SumMs,
               uint64_t &Count) {
    if (Probes.empty())
      Probes.push_back(Ref.run());
    size_t Done = 0;
    if (OnePass)
      Visit.restart();
    // A timed run always completes at least one whole pass.
    auto Finished = [&] {
      return OnePass ? Done == Corpus.size()
                     : Clock::now() >= End && Done >= Corpus.size();
    };
    while (!Finished()) {
      std::vector<std::pair<size_t, Timed>> Got;
      Clock::time_point B = Clock::now();
      while (!Finished() && msBetween(B, Clock::now()) < BlockMs) {
        size_t I = Visit.next();
        Got.emplace_back(I, verify(I));
        ++Done;
      }
      double Before = Probes.back();
      Probes.push_back(Ref.run());
      double RefMs = (Before + Probes.back()) / 2;
      for (const auto &[I, T] : Got) {
        tally(T);
        Raw[I].push_back(T.Ms);
        Rel[I].push_back(T.Ms / RefMs);
        SumMs += T.Ms;
        ++Count;
      }
    }
  }
};

void printMetric(std::string &Out, const char *Name, double V,
                 const char *Unit) {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                Out.empty() ? "" : ", ", Name, V, Unit);
  Out += Buf;
}

int fail(const std::string &Msg) {
  std::fprintf(stderr, "verifybench: error: %s\n", Msg.c_str());
  return 1;
}

/// The whole measurement. It runs on a dedicated caller thread: glibc's
/// main-thread heap hands freed memory back to the kernel in a way that
/// depends on what the benchmark itself has allocated, which moved one
/// water.rlx verification job from 1.6 ms to 7.4 ms (README.md). A worker
/// thread's arena holds only the caller's allocations, as in the daemon's
/// connection threads.
int runBenchmark(const Args &A) {
  Run R;
  for (const Workload &W : Workloads)
    if (W.Name == A.Workload)
      R.W = &W;
  if (!R.W)
    return fail("unknown workload '" + A.Workload + "'");

  // The corpus and its known answers: the benchmark's own work, before
  // any set-up time is counted.
  std::string Error;
  CorpusPaths Paths{A.Root + "/examples/programs",
                    A.DataDir.empty() ? A.Root + "/verifybench/data"
                                      : A.DataDir};
  MutantDraws Draws;
  bool Ok = A.Workload == "refute_mixed"
                ? loadSplicedMutants(Paths, R.Corpus, Error) &&
                      loadGeneratedMutants(Paths, R.Corpus, Draws, Error)
                : loadCaseStudies(Paths, R.Corpus, Error);
  if (!Ok)
    return fail(Error);
  if (!R.Ref.load(A.Root + "/verifybench/probe/scripts.smt2", Error))
    return fail(Error);
  R.Raw.resize(R.Corpus.size());
  R.Rel.resize(R.Corpus.size());
  R.Exact.resize(R.Corpus.size());
  R.Visit = Order(R.Corpus.size(), A.Seed * 7919);
  R.SocketPath = A.WorkDir + "/vb-" + std::to_string(::getpid()) + ".sock";
  R.Ref.run(); // lazy libz3 initialisation is not the probe's time

  // Set-up, several times, each bracketed by probe runs; the last one
  // stays up for the measurement.
  std::vector<double> SetupsRaw, Setups;
  double ProbeBefore = R.Ref.run();
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    if (Rep)
      R.Rig.stop();
    double S = R.setupOnce(Error);
    if (S < 0)
      return fail(Error);
    double ProbeAfter = R.Ref.run();
    SetupsRaw.push_back(S);
    Setups.push_back(S * NominalProbeMs / ((ProbeBefore + ProbeAfter) / 2));
    ProbeBefore = ProbeAfter;
  }
  if (R.W->M == Mode::Serve)
    R.checkDaemon();

  Clock::time_point End =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<int64_t>(A.Seconds * 1000));
  double UntracedMs = 0;
  uint64_t UntracedCount = 0;
  std::string Metrics;
  Tracer T;
  uint64_t TracedVerifications = 0, TracedPasses = 0;

  if (!A.Trace) {
    R.measure(End, /*OnePass=*/false, UntracedMs, UntracedCount);
  } else {
    // Serve mode replays against a warm cache of its own, filled the way
    // the daemon's was; the job runner is timed against it too.
    std::unique_ptr<PersistentCache> Warm;
    if (R.W->M == Mode::Serve) {
      Warm = std::make_unique<PersistentCache>(
          "", verifyJobFingerprint(serveRequest(R.Corpus[0])), 0);
      for (const CorpusProgram &P : R.Corpus)
        if (runVerifyJob(serveRequest(P), Warm.get()).ExitStatus != 0)
          ++R.Failed;
    }
    std::vector<Counters> PassCounters;
    uint64_t FormulaBytes = 0;
    double JobMs = 0, AltMs = 0;
    uint64_t Jobs = 0, AltRequests = 0;
    Order TraceOrder(R.Corpus.size(), A.Seed * 7919 + 97);
    do {
      R.measure(End, /*OnePass=*/true, UntracedMs, UntracedCount);
      Counters Pass;
      uint64_t PassBytes = 0;
      TraceOrder.restart();
      for (size_t N = 0; N != R.Corpus.size(); ++N) {
        size_t I = TraceOrder.next();
        T.beginVerification(static_cast<uint32_t>(TracedVerifications++));
        bool Correct = false;
        uint64_t Bytes = 0;
        Counters K = replay(R.W->M, R.Corpus[I], T, Warm.get(), Correct,
                            Bytes);
        ++R.Attempted;
        R.Failed += Correct ? 0 : 1;
        PassBytes += Bytes;
        for (const auto &[Name, V] : K)
          Pass[Name] += V;
        // Untraced and traced runs of one program must do the same work.
        R.checkCounters(I, K, "traced replay");
        if (Warm) {
          Clock::time_point S = Clock::now();
          VerifyWireResponse Resp = runVerifyJob(serveRequest(R.Corpus[I]),
                                                 Warm.get());
          JobMs += msBetween(S, Clock::now());
          ++Jobs;
          if (Resp.ExitStatus != 0)
            ++R.Failed;
        }
      }
      // Serve mode: one pass alternating the two connections.
      for (size_t N = 0; Warm && N != R.Corpus.size(); ++N) {
        Timed Alt = R.Rig.verify(N % ServeConnections, R.Corpus[N]);
        R.tally(Alt);
        AltMs += Alt.Ms;
        ++AltRequests;
      }
      if (!PassCounters.empty() && PassCounters.front() != Pass)
        R.Mismatches.push_back("per-pass counters differ");
      PassCounters.push_back(Pass);
      FormulaBytes = PassBytes;
      ++TracedPasses;
    } while (Clock::now() < End);

    // Per-layer self times, per traced verification.
    std::map<std::string, double> Self = T.selfTimes();
    double N = static_cast<double>(TracedVerifications);
    auto SelfMs = [&](const char *Name) {
      auto It = Self.find(Name);
      return It == Self.end() ? 0.0 : It->second / N;
    };
    const Counters &P = PassCounters.front();
    auto Count = [&](const char *Name) {
      auto It = P.find(Name);
      return It == P.end() ? 0.0 : static_cast<double>(It->second);
    };
    double AttributedMs = 0;
    for (const auto &[Name, Ms] : Self)
      if (Name != "verify")
        AttributedMs += Ms / N;
    double MeanUntraced = UntracedMs / UntracedCount;
    double MeanJob = Jobs ? JobMs / Jobs : 0;
    double TransportMs = Jobs ? MeanUntraced - MeanJob : 0;
    double InProcess = Jobs ? MeanJob : MeanUntraced;
    double TracedMean = T.rootTime() / N;
    double BoundedAttempts =
        Count("solver.bounded.settled") + Count("solver.bounded.gave_up");
    uint64_t Z3QueriesAll = 0;
    for (const Counters &C : PassCounters) {
      auto It = C.find("solver.z3.queries");
      Z3QueriesAll += It == C.end() ? 0 : It->second;
    }
    std::vector<double> RawMedians;
    for (const std::vector<double> &V : R.Raw)
      RawMedians.push_back(median(V));

    printMetric(Metrics, "parser.ms", SelfMs("parser"), "ms");
    printMetric(Metrics, "sema.ms", SelfMs("sema"), "ms");
    printMetric(Metrics, "vcgen.ms", SelfMs("vcgen"), "ms");
    printMetric(Metrics, "vcgen.vcs", Count("vcgen.vcs"), "count");
    printMetric(Metrics, "vcgen.formula_bytes",
                static_cast<double>(FormulaBytes), "bytes");
    printMetric(Metrics, "logic.ms", SelfMs("logic"), "ms");
    printMetric(Metrics, "logic.settled", Count("logic.settled"), "count");
    printMetric(Metrics, "solver.setup_ms", SelfMs("solver.setup"), "ms");
    printMetric(Metrics, "solver.bounded.ms", SelfMs("solver.bounded"), "ms");
    printMetric(Metrics, "solver.bounded.attempts", BoundedAttempts, "count");
    printMetric(Metrics, "solver.bounded.settled",
                Count("solver.bounded.settled"), "count");
    printMetric(Metrics, "solver.bounded.useful_ratio",
                BoundedAttempts ? Count("solver.bounded.settled") /
                                      BoundedAttempts
                                : 0,
                "ratio");
    printMetric(Metrics, "solver.bounded.candidates",
                Count("solver.bounded.candidates"), "count");
    printMetric(Metrics, "solver.bounded.quant_steps",
                Count("solver.bounded.quant_steps"), "count");
    printMetric(Metrics, "solver.bounded.budget_trips",
                Count("solver.bounded.budget_trips"), "count");
    printMetric(Metrics, "solver.z3.ms", SelfMs("solver.z3"), "ms");
    printMetric(Metrics, "solver.z3.queries", Count("solver.z3.queries"),
                "count");
    printMetric(Metrics, "solver.z3.ms_per_query",
                Z3QueriesAll ? Self["solver.z3"] / Z3QueriesAll : 0, "ms");
    printMetric(Metrics, "solver.z3.model_ms", SelfMs("solver.z3.model"),
                "ms");
    printMetric(Metrics, "discharge.ms", SelfMs("discharge"), "ms");
    printMetric(Metrics, "discharge.cache_hits", Count("discharge.cache_hits"),
                "count");
    printMetric(Metrics, "discharge.cache_misses",
                Count("discharge.cache_misses"), "count");
    printMetric(Metrics, "discharge.escalations",
                Count("discharge.escalations"), "count");
    printMetric(Metrics, "support.pcache.hits", Count("support.pcache.hits"),
                "count");
    printMetric(Metrics, "support.pcache.key_ms",
                SelfMs("support.pcache.key"), "ms");
    printMetric(Metrics, "report.ms", SelfMs("report"), "ms");
    printMetric(Metrics, "server.job_ms", MeanJob, "ms");
    printMetric(Metrics, "server.refusals", static_cast<double>(R.Refusals),
                "count");
    printMetric(Metrics, "transport.overhead_ms", TransportMs, "ms");
    printMetric(Metrics, "transport.conn_switch_ms",
                AltRequests ? AltMs / AltRequests - MeanUntraced : 0, "ms");
    printMetric(Metrics, "transport.bytes",
                R.WireRequests ? static_cast<double>(R.WireBytes) /
                                     R.WireRequests
                               : 0,
                "bytes");
    printMetric(Metrics, "machine.ref_ms", median(R.Probes), "ms");
    printMetric(Metrics, "machine.raw_verify_ms_gm", geomean(RawMedians),
                "ms");
    printMetric(Metrics, "machine.unattributed_ms",
                MeanUntraced - AttributedMs - TransportMs, "ms");
    printMetric(Metrics, "machine.trace_overhead_pct",
                (TracedMean - InProcess) / InProcess * 100, "%");
  }
  // The daemon stayed warm through the measurement.
  if (R.W->M == Mode::Serve)
    R.checkDaemon();
  R.Rig.stop();

  // Probe-relative end-to-end figures, over whole passes only: samples of
  // the last, unfinished pass are dropped so every program weighs the
  // same in the pool.
  size_t Whole = SIZE_MAX;
  for (const std::vector<double> &V : R.Rel)
    Whole = std::min(Whole, V.size());
  size_t Dropped = 0;
  for (size_t I = 0; I != R.Corpus.size(); ++I) {
    Dropped += R.Rel[I].size() - Whole;
    R.Rel[I].resize(Whole);
    R.Raw[I].resize(Whole);
  }
  std::vector<double> Medians, Pooled;
  for (const std::vector<double> &V : R.Rel) {
    Medians.push_back(median(V));
    Pooled.insert(Pooled.end(), V.begin(), V.end());
  }
  std::sort(Pooled.begin(), Pooled.end());
  // The workload's fixed percentile, interpolated between neighbouring
  // samples. Not the rank N-11: the pool mixes programs whose costs differ
  // several-fold, and a rank that moves with the pass count jumps from one
  // program's samples to another's, where a fixed percentile of equally
  // weighted programs stays put (see README.md).
  size_t N = Pooled.size();
  double TailPct = R.W->TailPct;
  double Pos = (N - 1) * TailPct / 100;
  size_t Lo = static_cast<size_t>(Pos);
  double Tail = N == 0 ? 0
                       : Pooled[Lo] + (Pos - Lo) * (Pooled[std::min(Lo + 1, N - 1)] -
                                                    Pooled[Lo]);
  if (!A.Trace) {
    printMetric(Metrics, "setup_s", median(Setups), "s");
    printMetric(Metrics, "verify_rel_gm", geomean(Medians), "ratio");
    printMetric(Metrics, "verify_rel_tail", Tail, "ratio");
    printMetric(Metrics, "peak_rss_mb", peakRssMb(), "MB");
  }

  if (R.Ref.wrongAnswers())
    R.Mismatches.push_back("the reference probe answered wrongly");
  for (const std::string &M : R.Mismatches)
    std::fprintf(stderr, "verifybench: EXACT-COUNTER MISMATCH: %s\n",
                 M.c_str());

  // Spans stay in memory until here.
  if (A.Trace) {
    std::string Path = A.WorkDir + "/trace-" + A.Workload + "-seed" +
                       std::to_string(A.Seed) + ".jsonl";
    std::ofstream(Path) << T.toJsonLines();
  }

  // Per program: samples and median probe-relative time.
  std::string PerProgram;
  for (size_t I = 0; I != R.Corpus.size(); ++I) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": [%zu, %.4f]",
                  I ? ", " : "", jsonEscape(R.Corpus[I].Name).c_str(),
                  R.Rel[I].size(), median(R.Rel[I]));
    PerProgram += Buf;
  }
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %ld, \"cpu\": \"%s\", \"libz3\": \"%s\", \"git_sha\": "
      "\"%s\", \"programs\": %zu, \"samples\": %zu, "
      "\"unfinished_pass_samples_dropped\": %zu, "
      "\"samples_per_program\": %zu, \"tail_percentile\": %.1f, "
      "\"probes\": %zu, \"probe_scripts\": %zu, \"setup_reps\": %u, "
      "\"setup_raw_s\": %.4f, \"probe_ms\": %.2f, "
      "\"nominal_probe_ms\": %.1f, "
      "\"traced_passes\": %llu, \"mutants_drawn\": %u, "
      "\"mutants_dropped\": %u, \"counter_mismatches\": %zu, "
      "\"per_program\": {%s}}\n",
      A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
      A.Trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      jsonEscape(cpuModel()).c_str(),
      jsonEscape(Probe::z3Version()).c_str(), jsonEscape(A.GitSha).c_str(),
      R.Corpus.size(), Pooled.size(), Dropped, Whole, TailPct,
      R.Probes.size(), R.Ref.scriptCount(), SetupReps, median(SetupsRaw),
      median(R.Probes), NominalProbeMs,
      static_cast<unsigned long long>(TracedPasses), Draws.Drawn,
      Draws.Dropped, R.Mismatches.size(), PerProgram.c_str());
  bool Correct = R.Failed == 0 && R.Mismatches.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  std::fflush(stdout);
  return R.Mismatches.empty() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return fail("usage: verifybench --workload <name> --seed <n> --seconds "
                "<s> --trace <0|1> [--root <dir>] [--work-dir <dir>] "
                "[--git-sha <sha>] [--data-dir <dir>]");
  int Status = 1;
  std::thread Caller([&] {
    try {
      Status = runBenchmark(A);
    } catch (const std::exception &E) {
      Status = fail(E.what());
    }
  });
  Caller.join();
  return Status;
}
