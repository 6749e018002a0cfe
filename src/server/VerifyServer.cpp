//===- VerifyServer.cpp - Verification as a service ---------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "server/VerifyServer.h"

#include "parser/Parser.h"
#include "solver/BoundedSolver.h"
#include "solver/Z3Solver.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>

#include <poll.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace relax;

//===----------------------------------------------------------------------===//
// Shard-request serving (moved verbatim from the driver so the daemon,
// the pipe worker, and the socket worker answer identically)
//===----------------------------------------------------------------------===//

ShardResponse relax::serveShardRequest(ShardWorkerState &W,
                                       std::string_view Payload) {
  ShardResponse Resp;
  auto Fail = [&](std::string Msg) {
    Resp = ShardResponse();
    Resp.IsError = true;
    Resp.Error = std::move(Msg);
    return Resp;
  };

  Result<ShardRequest> Req = parseShardRequest(Payload);
  if (!Req.ok())
    return Fail("bad request: " + Req.message());
  if (FaultRegistry::shouldFail(FaultSite::SolverCall))
    return Fail("injected solver-call fault");
  Result<std::vector<TierKind>> Tiers = parsePipelineSpec(Req->Pipeline);
  if (!Tiers.ok())
    return Fail("bad worker pipeline: " + Tiers.message());
  for (TierKind K : *Tiers)
    if (K == TierKind::Shard)
      return Fail("a discharge worker cannot itself run a shard tier");

  // The configuration key is the request's own serialization with the
  // per-query parts stripped: any future field added to the bounded
  // wire line automatically participates in config-change detection.
  ShardRequest KeyReq;
  KeyReq.Pipeline = Req->Pipeline;
  KeyReq.Bounded = Req->Bounded;
  KeyReq.FinalBoundedStepFactor = Req->FinalBoundedStepFactor;
  std::string Key = serializeShardRequest(KeyReq);
  if (!W.Ctx || W.ConfigKey != Key) {
    W.Port.reset();
    W.Ctx = std::make_unique<AstContext>();
    PortfolioOptions PO;
    PO.Tiers = *Tiers;
    PO.Bounded = Req->Bounded;
    PO.FinalBoundedStepFactor = Req->FinalBoundedStepFactor;
    PortfolioSolver::BackendFactory Smt;
    if (RELAXC_HAVE_Z3) {
      AstContext *C = W.Ctx.get();
      Smt = [C] { return std::make_unique<Z3Solver>(C->symbols()); };
    }
    W.Port = std::make_unique<PortfolioSolver>(*W.Ctx, PO, Smt);
    W.ConfigKey = Key;
  }

  std::unordered_map<Symbol, VarKind> Kinds;
  for (const auto &[Name, Kind] : Req->Vars)
    Kinds[W.Ctx->sym(Name)] = Kind;

  std::vector<const BoolExpr *> Formulas;
  for (const std::string &Text : Req->Formulas) {
    SourceManager SM;
    SM.setBuffer("<shard-request>", Text);
    DiagnosticEngine Diags;
    Diags.setFileName("<shard-request>");
    Parser P(*W.Ctx, SM, Diags);
    const BoolExpr *F = P.parseStandaloneFormula(Kinds);
    if (!F || Diags.hasErrors())
      return Fail("formula parse error in '" + Text + "': " + Diags.render());
    Formulas.push_back(F);
  }

  Model Mod;
  Result<SatResult> R = SatResult::Unknown;
  if (Req->WantModel) {
    VarRefSet Vars;
    for (const WireVar &V : Req->ModelVars)
      Vars.insert(VarRef{W.Ctx->sym(V.Name), V.Tag, V.Kind});
    R = W.Port->checkSatWithModel(Formulas, Vars, Mod);
  } else {
    R = W.Port->checkSat(Formulas);
  }
  if (!R.ok())
    return Fail(R.message());

  Resp.Verdict = *R;
  Resp.SettledBy = W.Port->settledBy();
  Resp.Trail = W.Port->giveUpTrail();
  if (Req->WantModel && *R == SatResult::Sat) {
    for (const auto &[V, Val] : Mod.Ints)
      Resp.Ints.push_back(
          {{std::string(W.Ctx->text(V.Name)), V.Tag, V.Kind}, Val});
    for (const auto &[V, Val] : Mod.Arrays)
      Resp.Arrays.push_back(
          {{std::string(W.Ctx->text(V.Name)), V.Tag, V.Kind}, Val});
  }
  return Resp;
}

bool relax::isShardRequestPayload(std::string_view Payload) {
  return Payload.rfind("relax-shard-request", 0) == 0;
}

bool relax::isVerifyRequestPayload(std::string_view Payload) {
  return Payload.rfind("relax-verify-request", 0) == 0;
}

//===----------------------------------------------------------------------===//
// The verify configuration
//===----------------------------------------------------------------------===//

bool relax::parseDecimal(std::string_view V, uint64_t &Out) {
  if (V.empty())
    return false;
  Out = 0;
  for (char C : V) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Out > (UINT64_MAX - Digit) / 10)
      return false;
    Out = Out * 10 + Digit;
  }
  return true;
}

Result<bool> VerifyConfig::parseFlag(std::string_view Arg) {
  std::string_view V;
  auto Value = [&](std::string_view Prefix) {
    if (Arg.substr(0, Prefix.size()) != Prefix)
      return false;
    V = Arg.substr(Prefix.size());
    return true;
  };
  auto Bad = [&](const char *Flag, const char *Expected) {
    return Result<bool>::error("bad " + std::string(Flag) + " value '" +
                               std::string(V) + "' (" + Expected + ")");
  };
  auto Count = [&](uint64_t Max, uint64_t &Out) {
    return parseDecimal(V, Out) && Out <= Max;
  };
  auto OnOff = [&](bool &Out) {
    if (V != "on" && V != "off")
      return false;
    Out = V == "on";
    return true;
  };
  uint64_t N = 0;
  if (Value("--solver=")) {
    if (!isKnownSolverName(V))
      return Result<bool>::error("unknown solver '" + std::string(V) +
                                 "' for --solver= (valid choices: " +
                                 knownSolverNamesForDiagnostics() + ")");
    SolverName = std::string(V);
  } else if (Value("--pipeline=")) {
    if (Result<std::vector<TierKind>> Tiers = parsePipelineSpec(V);
        !Tiers.ok())
      return Tiers.status();
    Pipeline = std::string(V);
  } else if (Value("--bounded-steps=")) {
    if (!Count(UINT64_MAX, BoundedSteps))
      return Bad("--bounded-steps",
                 "expected a decimal step count; 0 = unlimited");
  } else if (Value("--bounded-learning=")) {
    if (!OnOff(BoundedLearning))
      return Bad("--bounded-learning", "expected on or off");
  } else if (Value("--bounded-restarts=")) {
    if (!OnOff(BoundedRestarts))
      return Bad("--bounded-restarts", "expected on or off");
  } else if (Value("--bounded-max-nogoods=")) {
    if (!Count(UINT32_MAX, BoundedMaxNogoods))
      return Bad("--bounded-max-nogoods",
                 "expected a decimal nogood count; 0 = unlimited");
  } else if (Value("--jobs=")) {
    if (!Count(1024, N))
      return Bad("--jobs", "expected a decimal worker count <= 1024");
    Jobs = static_cast<unsigned>(N);
  } else if (Value("--solver-jobs=")) {
    if (!Count(1024, N))
      return Bad("--solver-jobs", "expected a decimal worker count <= 1024");
    SolverJobs = static_cast<unsigned>(N);
  } else if (Value("--timeout-ms=")) {
    if (!Count(INT64_MAX, N))
      return Bad("--timeout-ms", "expected a decimal millisecond count");
    TimeoutMs = static_cast<int64_t>(N);
  } else if (Value("--vc-timeout-ms=")) {
    if (!Count(INT64_MAX, N))
      return Bad("--vc-timeout-ms", "expected a decimal millisecond count");
    VcTimeoutMs = static_cast<int64_t>(N);
  } else if (Arg == "--no-safety") {
    NoSafety = true;
  } else if (Arg == "--original-only") {
    OriginalOnly = true;
  } else if (Arg == "--verbose") {
    Verbose = true;
  } else if (Arg == "--solver-stats") {
    SolverStats = true;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> VerifyConfig::flags() const {
  const VerifyConfig D;
  std::vector<std::string> Out;
  auto Add = [&](bool Differs, std::string Flag) {
    if (Differs)
      Out.push_back(std::move(Flag));
  };
  auto OnOff = [](bool B) { return B ? "on" : "off"; };
  Add(SolverName != D.SolverName, "--solver=" + SolverName);
  Add(!Pipeline.empty(), "--pipeline=" + Pipeline);
  Add(BoundedSteps != D.BoundedSteps,
      "--bounded-steps=" + std::to_string(BoundedSteps));
  Add(BoundedLearning != D.BoundedLearning,
      std::string("--bounded-learning=") + OnOff(BoundedLearning));
  Add(BoundedRestarts != D.BoundedRestarts,
      std::string("--bounded-restarts=") + OnOff(BoundedRestarts));
  Add(BoundedMaxNogoods != D.BoundedMaxNogoods,
      "--bounded-max-nogoods=" + std::to_string(BoundedMaxNogoods));
  Add(Jobs != D.Jobs, "--jobs=" + std::to_string(Jobs));
  Add(SolverJobs != D.SolverJobs,
      "--solver-jobs=" + std::to_string(SolverJobs));
  Add(TimeoutMs >= 0, "--timeout-ms=" + std::to_string(TimeoutMs));
  Add(VcTimeoutMs >= 0, "--vc-timeout-ms=" + std::to_string(VcTimeoutMs));
  Add(NoSafety, "--no-safety");
  Add(OriginalOnly, "--original-only");
  Add(Verbose, "--verbose");
  Add(SolverStats, "--solver-stats");
  return Out;
}

//===----------------------------------------------------------------------===//
// The verify wire codec
//===----------------------------------------------------------------------===//

namespace {

const char *VerifyRequestMagic = "relax-verify-request 2";
const char *VerifyResponseMagic = "relax-verify-response 1";

void putLine(std::string &Out, const std::string &S) {
  Out += S;
  Out += '\n';
}

/// `<tag> <len>\n<len bytes>\n` — the blob form for fields that may hold
/// anything (file names with spaces, whole programs, rendered reports).
void putBlob(std::string &Out, const char *Tag, std::string_view Bytes) {
  Out += Tag;
  Out += ' ';
  Out += std::to_string(Bytes.size());
  Out += '\n';
  Out.append(Bytes.data(), Bytes.size());
  Out += '\n';
}

/// Cursor over a payload: lines for the fixed fields, counted blobs for
/// the free-form ones. Every malformation is a diagnosed parse error.
struct WireCursor {
  std::string_view S;
  size_t Pos = 0;

  bool line(std::string_view &Out) {
    if (Pos > S.size())
      return false;
    size_t Nl = S.find('\n', Pos);
    if (Nl == std::string_view::npos)
      return false;
    Out = S.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  }

  Status blob(const char *Tag, std::string &Out) {
    std::string_view L;
    if (!line(L))
      return Status::error(std::string("missing '") + Tag + "' field");
    size_t TagLen = std::strlen(Tag);
    if (L.compare(0, TagLen, Tag) != 0 || L.size() <= TagLen ||
        L[TagLen] != ' ')
      return Status::error(std::string("expected '") + Tag +
                           " <len>', got '" + std::string(L) + "'");
    uint64_t N = 0;
    if (!parseDecimal(L.substr(TagLen + 1), N))
      return Status::error(std::string("bad '") + Tag + "' length");
    if (N > MaxFramePayload)
      return Status::error(std::string("'") + Tag + "' length too large");
    if (Pos + N + 1 > S.size())
      return Status::error(std::string("truncated '") + Tag + "' bytes");
    Out.assign(S.data() + Pos, N);
    Pos += N;
    if (S[Pos] != '\n')
      return Status::error(std::string("'") + Tag +
                           "' bytes not newline-terminated");
    ++Pos;
    return Status::success();
  }
};

} // namespace

std::string relax::serializeVerifyRequest(const VerifyWireRequest &R) {
  std::string Flags;
  for (const std::string &F : R.flags())
    putLine(Flags, F);
  std::string Out;
  putLine(Out, VerifyRequestMagic);
  putBlob(Out, "config", Flags);
  putBlob(Out, "file", R.FileName);
  putBlob(Out, "source", R.Source);
  return Out;
}

Result<VerifyWireRequest> relax::parseVerifyRequest(std::string_view Payload) {
  using RR = Result<VerifyWireRequest>;
  auto Bad = [](const std::string &Msg) {
    return RR::error("bad verify request: " + Msg);
  };
  WireCursor C{Payload};
  std::string_view L;
  if (!C.line(L) || L != VerifyRequestMagic)
    return Bad("bad magic (stream is not speaking the verify protocol)");
  VerifyWireRequest R;
  std::string Flags;
  if (Status S = C.blob("config", Flags); !S.ok())
    return Bad(S.message());
  WireCursor F{Flags};
  while (F.line(L)) {
    Result<bool> Took = R.parseFlag(L);
    if (!Took.ok())
      return Bad(Took.message());
    if (!*Took)
      return Bad("unknown option '" + std::string(L) + "'");
  }
  if (F.Pos != Flags.size())
    return Bad("config flags not newline-terminated");
  if (Status S = C.blob("file", R.FileName); !S.ok())
    return Bad(S.message());
  if (Status S = C.blob("source", R.Source); !S.ok())
    return Bad(S.message());
  return RR(std::move(R));
}

std::string relax::serializeVerifyResponse(const VerifyWireResponse &R) {
  std::string Out;
  putLine(Out, VerifyResponseMagic);
  std::string StatusLine = "status " + std::to_string(R.ExitStatus) + " ";
  StatusLine += R.IsError ? (R.Retryable ? "retryable-error" : "error") : "ok";
  putLine(Out, StatusLine);
  putBlob(Out, "error", R.Error);
  putBlob(Out, "diagnostics", R.Diagnostics);
  putBlob(Out, "report", R.Report);
  return Out;
}

Result<VerifyWireResponse>
relax::parseVerifyResponse(std::string_view Payload) {
  using RR = Result<VerifyWireResponse>;
  auto Bad = [](const std::string &Msg) {
    return RR::error("bad verify response: " + Msg);
  };
  WireCursor C{Payload};
  std::string_view L;
  if (!C.line(L) || L != VerifyResponseMagic)
    return Bad("bad magic (stream is not speaking the verify protocol)");
  VerifyWireResponse R;
  if (!C.line(L) || L.substr(0, 7) != "status ")
    return Bad("missing 'status' field");
  std::string_view V = L.substr(7);
  size_t Sp = V.find(' ');
  if (Sp == std::string_view::npos)
    return Bad("bad 'status' line '" + std::string(V) + "'");
  uint64_t N = 0;
  if (!parseDecimal(V.substr(0, Sp), N) || N > 3)
    return Bad("bad exit status '" + std::string(V.substr(0, Sp)) + "'");
  R.ExitStatus = static_cast<int>(N);
  std::string_view Kind = V.substr(Sp + 1);
  if (Kind == "ok") {
    R.IsError = false;
  } else if (Kind == "error") {
    R.IsError = true;
  } else if (Kind == "retryable-error") {
    R.IsError = true;
    R.Retryable = true;
  } else {
    return Bad("bad status kind '" + std::string(Kind) + "'");
  }
  if (Status S = C.blob("error", R.Error); !S.ok())
    return Bad(S.message());
  if (Status S = C.blob("diagnostics", R.Diagnostics); !S.ok())
    return Bad(S.message());
  if (Status S = C.blob("report", R.Report); !S.ok())
    return Bad(S.message());
  return RR(std::move(R));
}

//===----------------------------------------------------------------------===//
// Stats renderers
//===----------------------------------------------------------------------===//

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[1024];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, std::min(static_cast<size_t>(N), sizeof(Buf) - 1));
}

/// The `--solver-stats` block. \p Tiers is the effective chain (empty =
/// single backend, whose sequential path runs behind \p Cached).
std::string renderSolverStats(const std::string &BackendName,
                              const std::vector<TierKind> &Tiers,
                              const DischargeStats &S,
                              const CachingSolver &Cached,
                              const PersistentCache *PCache) {
  auto U = [](uint64_t N) { return static_cast<unsigned long long>(N); };
  std::string Out;
  Out += "solver stats:\n";
  if (!Tiers.empty()) {
    appendf(Out, "  pipeline: %s\n", formatPipeline(Tiers).c_str());
    for (size_t I = 0; I != Tiers.size() && I != S.Portfolio.Tiers.size();
         ++I) {
      const PortfolioStats::TierStat &T = S.Portfolio.Tiers[I];
      const char *Name = tierKindName(Tiers[I]);
      bool Degraded = Tiers[I] == TierKind::Smt && !RELAXC_HAVE_Z3;
      appendf(Out,
              "  tier %zu %s%s: settled %llu, gave up %llu"
              " (%llu budget trips)\n",
              I, Name, Degraded ? " (bounded-full fallback)" : "",
              U(T.Settled), U(T.GaveUp), U(T.BudgetTrips));
    }
    appendf(Out,
            "  queries: %llu, tier escalations: %llu, obligations "
            "queued past the inline stage: %llu\n",
            U(S.Portfolio.Queries), U(S.Portfolio.Escalations),
            U(S.EscalatedObligations));
    appendf(Out, "  shared result cache: %llu hits, %llu misses\n",
            U(S.SharedCacheHits), U(S.SharedCacheMisses));
  } else {
    // Single-backend mode: the sequential path runs behind CachingSolver;
    // the parallel path uses the scheduler's shared cache.
    appendf(Out, "  backend: %s\n", BackendName.c_str());
    appendf(Out,
            "  caching solver: %llu hits, %llu misses, %llu model "
            "pass-throughs\n",
            U(Cached.hitCount()), U(Cached.missCount()),
            U(Cached.modelPassThroughCount()));
    appendf(Out, "  shared result cache: %llu hits, %llu misses\n",
            U(S.SharedCacheHits), U(S.SharedCacheMisses));
  }
  if (PCache) {
    PersistentCacheStats PS = PCache->stats();
    appendf(Out,
            "  persistent cache: %llu entries loaded, %llu hits, "
            "%llu appended, %llu verify-sampled (%llu verified)\n",
            U(PS.Loaded), U(PS.Hits), U(PS.Appended), U(PS.VerifySampled),
            U(PS.VerifiedHits));
    if (PS.LoadCorrupt)
      appendf(Out, "  persistent cache recovered cold: %s\n",
              PS.LoadDetail.c_str());
  }
  appendf(Out,
          "  bounded work: %llu candidate assignments, %llu "
          "quantifier-body evaluations\n",
          U(S.BoundedCandidates), U(S.BoundedQuantSteps));
  appendf(Out,
          "  bounded search: %llu conflicts, %llu learned nogoods "
          "(%llu evicted), %llu unit propagations, %llu backjumps, "
          "%llu restarts, max trail depth %llu\n",
          U(S.Search.Conflicts), U(S.Search.LearnedNogoods),
          U(S.Search.EvictedNogoods), U(S.Search.UnitPropagations),
          U(S.Search.Backjumps), U(S.Search.Restarts),
          U(S.Search.MaxTrailDepth));
  appendf(Out, "  scheduler: %llu stolen tasks\n", U(S.StolenTasks));
  return Out;
}

/// The `--solver-stats` per-procedure obligation counts. With summary-
/// based generation a procedure called N times still shows up once; only
/// cheap instantiation VCs accrue to its callers.
std::string renderProcObligations(const VerifyReport &Report) {
  std::vector<std::string> Order;
  std::map<std::string, std::pair<size_t, size_t>> Counts;
  auto Tally = [&](const JudgmentReport &J, bool Relaxed) {
    for (const VCOutcome &O : J.Outcomes) {
      std::string Name =
          O.Condition.Proc.empty() ? std::string("main") : O.Condition.Proc;
      auto [It, New] = Counts.try_emplace(Name, 0, 0);
      if (New)
        Order.push_back(Name);
      ++(Relaxed ? It->second.second : It->second.first);
    }
  };
  Tally(Report.Original, false);
  Tally(Report.Relaxed, true);
  std::string Out;
  Out += "  obligations by procedure:\n";
  for (const std::string &Name : Order)
    appendf(Out, "    %s: %zu |-o, %zu |-r\n", Name.c_str(),
            Counts[Name].first, Counts[Name].second);
  return Out;
}

/// Exit codes (pinned by driver_cli_tests): 0 verified; 1 when any
/// obligation was positively refuted; 2 for a static error; 3 when the
/// run fell short only because a solver gave up or errored — so scripts
/// tell "the program is wrong" from "the solver was too weak".
int exitStatus(const VerifyReport &Report) {
  if (Report.verified())
    return 0;
  if (!Report.SemaOk || Report.GenErrors)
    return 2;
  size_t Refuted = Report.Original.count(VCStatus::Failed) +
                   Report.Relaxed.count(VCStatus::Failed);
  return Refuted > 0 ? 1 : 3;
}

} // namespace

//===----------------------------------------------------------------------===//
// The builder
//===----------------------------------------------------------------------===//

Result<VerifyPlan> VerifyPlan::create(const VerifyConfig &C) {
  VerifyPlan P;
  for (const std::string &F : C.flags())
    if (Result<bool> Took = P.Config.parseFlag(F); !Took.ok())
      return Took.status();
  P.Portfolio.Tiers.clear();
  if (!P.Config.Pipeline.empty())
    P.Portfolio.Tiers = *parsePipelineSpec(P.Config.Pipeline);
  BoundedSolverOptions &B = P.Portfolio.Bounded;
  B.MaxQuantSteps = P.Config.BoundedSteps;
  B.Jobs = std::max(1u, P.Config.SolverJobs);
  B.Learning = P.Config.BoundedLearning;
  B.Restarts = P.Config.BoundedRestarts;
  B.MaxNogoods = static_cast<uint32_t>(P.Config.BoundedMaxNogoods);
  return P;
}

std::unique_ptr<Solver> VerifyPlan::makeBackend(AstContext &Ctx) const {
  // A single bounded backend is the final tier of `--pipeline=bounded`:
  // the same budgets (so it never searches unbudgeted) and, like any
  // final tier, authoritative exhaustion.
  if (Config.SolverName == "bounded")
    return std::make_unique<BoundedSolver>(Portfolio.Bounded, &Ctx);
  return std::make_unique<Z3Solver>(Ctx.symbols());
}

std::string VerifyPlan::fingerprint() const {
  if (!Portfolio.Tiers.empty())
    return portfolioConfigFingerprint(Portfolio, RELAXC_HAVE_Z3 != 0);
  if (Config.SolverName == "bounded")
    return "backend=bounded " + boundedOptionsFingerprint(Portfolio.Bounded);
  return "backend=z3";
}

VerifyOutcome VerifyPlan::run(AstContext &Ctx, const Program &Prog,
                              DiagnosticEngine &Diags,
                              PersistentCache *PCache) const {
  std::unique_ptr<Solver> Backend = makeBackend(Ctx);
  CachingSolver Cached(*Backend);
  Verifier V(Ctx, Prog, Cached, Diags);
  Verifier::Options VO;
  VO.GenOpts.CheckSafety = !Config.NoSafety;
  VO.RunRelaxed = !Config.OriginalOnly;
  VO.Jobs = std::max(1u, Config.Jobs);
  VO.VcTimeoutMs = Config.VcTimeoutMs;
  DischargeStats Stats;
  VO.StatsOut = &Stats;
  VO.PCache = PCache;
  if (!Portfolio.Tiers.empty()) {
    VO.Portfolio = Portfolio;
    if (RELAXC_HAVE_Z3)
      VO.SmtFactory = [&Ctx] {
        return std::make_unique<Z3Solver>(Ctx.symbols());
      };
  } else {
    VO.SmtFactory = [this, &Ctx] { return makeBackend(Ctx); };
  }
  // Armed last, right before the run, so setup does not eat into the
  // budget; an expired run settles the rest as "deadline" gave-ups.
  if (Config.TimeoutMs >= 0)
    VO.GlobalDeadline = Deadline::inMs(Config.TimeoutMs);

  VerifyOutcome Out;
  Out.Report = V.run(VO);
  Out.Output = renderReport(Out.Report, Ctx.symbols(), Config.Verbose);
  if (Config.SolverStats) {
    Out.Output += renderSolverStats(Config.SolverName, Portfolio.Tiers, Stats,
                                    Cached, PCache);
    Out.Output += renderProcObligations(Out.Report);
  }
  Out.ExitStatus = exitStatus(Out.Report);
  return Out;
}

//===----------------------------------------------------------------------===//
// The served verify job
//===----------------------------------------------------------------------===//

std::string relax::verifyJobFingerprint(const VerifyWireRequest &R) {
  Result<VerifyPlan> P = VerifyPlan::create(R);
  return P.ok() ? P->fingerprint() : std::string();
}

VerifyWireResponse relax::runVerifyJob(const VerifyWireRequest &Req,
                                       PersistentCache *PCache) {
  VerifyWireResponse Resp;
  auto Usage = [&](std::string Msg) {
    Resp.IsError = true;
    Resp.ExitStatus = 2;
    Resp.Error = std::move(Msg);
    return Resp;
  };
  Result<VerifyPlan> Plan = VerifyPlan::create(Req);
  if (!Plan.ok())
    return Usage(Plan.message());
  for (TierKind K : Plan->Portfolio.Tiers)
    if (K == TierKind::Shard)
      return Usage("a served verify request cannot run a shard tier "
                   "(the daemon is already the far side of one)");

  // One fresh AstContext per request — see the file comment in
  // VerifyServer.h for why warm contexts would break report identity.
  AstContext Ctx;
  SourceManager SM;
  SM.setBuffer(Req.FileName, Req.Source);
  DiagnosticEngine Diags;
  Diags.setFileName(Req.FileName);
  Parser P(Ctx, SM, Diags);
  std::optional<Program> Prog = P.parseProgram();
  if (!Prog) {
    Resp.ExitStatus = 2;
    Resp.Diagnostics = Diags.render();
    return Resp;
  }

  VerifyOutcome Out = Plan->run(Ctx, *Prog, Diags, PCache);
  if (Diags.hasErrors())
    Resp.Diagnostics = Diags.render();
  Resp.Report = std::move(Out.Output);
  Resp.ExitStatus = Out.ExitStatus;
  return Resp;
}

//===----------------------------------------------------------------------===//
// The daemon
//===----------------------------------------------------------------------===//

Result<std::unique_ptr<VerifyServer>>
VerifyServer::create(VerifyServerOptions O) {
  using R = Result<std::unique_ptr<VerifyServer>>;
  if (O.MaxConnections == 0)
    return R::error("the server needs at least one connection slot");
  Result<SocketListener> L = SocketListener::bind(O.Address, O.AcceptBacklog);
  if (!L.ok())
    return R::error(L.message());
  std::unique_ptr<VerifyServer> S(new VerifyServer());
  S->Opts = std::move(O);
  S->Listener = std::move(*L);
  return R(std::move(S));
}

VerifyServer::~VerifyServer() {
  requestStop();
  std::unique_lock<std::mutex> L(M);
  DrainCV.wait(L, [&] { return Active == 0; });
}

PersistentCache *VerifyServer::cacheFor(const std::string &Fingerprint) {
  if (Fingerprint.empty())
    return nullptr;
  std::lock_guard<std::mutex> L(CacheM);
  auto It = Caches.find(Fingerprint);
  if (It != Caches.end())
    return It->second.get();
  // With a CacheDir this is the CLI's on-disk cache (same keys, same
  // file), loaded once and flushed after each request; without one it is
  // a purely in-memory warm store — load()/flush() are simply skipped.
  auto C = std::make_unique<PersistentCache>(Opts.CacheDir, Fingerprint,
                                             /*VerifyPpm=*/0);
  if (!Opts.CacheDir.empty())
    C->load();
  PersistentCache *Raw = C.get();
  Caches.emplace(Fingerprint, std::move(C));
  return Raw;
}

VerifyWireResponse VerifyServer::handleVerify(std::string_view Payload) {
  Result<VerifyWireRequest> Req = parseVerifyRequest(Payload);
  if (!Req.ok()) {
    VerifyWireResponse E;
    E.IsError = true;
    E.ExitStatus = 2;
    E.Error = Req.message();
    return E;
  }
  // Clamp the request deadline to the server's cap so one client cannot
  // pin a handler thread forever.
  if (Opts.MaxRequestTimeoutMs >= 0 &&
      (Req->TimeoutMs < 0 || Req->TimeoutMs > Opts.MaxRequestTimeoutMs))
    Req->TimeoutMs = Opts.MaxRequestTimeoutMs;
  PersistentCache *PC = cacheFor(verifyJobFingerprint(*Req));
  uint64_t MissesBefore = PC ? PC->stats().Misses : 0;
  VerifyWireResponse Resp = runVerifyJob(*Req, PC);
  // A job that misses the cache builds solver contexts, and glibc keeps
  // their freed heap resident (a cold pass over the eight case studies
  // leaves a 17 MB free block in the handler thread's arena). A cold
  // streak reuses it, so it is kept then; the first job served from cache
  // alone hands it back, since a warm daemon does not reuse it.
  if (PC && PC->stats().Misses != MissesBefore)
    SolverHeapHeld.store(true);
  else if (SolverHeapHeld.exchange(false)) {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
  }
  if (PC && !Opts.CacheDir.empty()) {
    if (Status S = PC->flush(); !S.ok())
      std::fprintf(stderr,
                   "relaxc: warning: persistent cache not saved: %s\n",
                   S.message().c_str());
  }
  return Resp;
}

void VerifyServer::serveConnection(std::shared_ptr<Transport> Conn) {
  // Shard-serving context, warm across the frames of this connection —
  // one remote-pool slot maps to one connection, so this mirrors a pipe
  // worker's per-process warm state.
  ShardWorkerState Shard;
  for (;;) {
    if (Stopping.load())
      break;
    // Idle wait: a connected client may sit quiet between requests
    // indefinitely. Only once the first byte of a frame arrives does the
    // whole-frame deadline arm — the anti-slow-loris bound.
    pollfd P{Conn->recvFd(), POLLIN, 0};
    int R = ::poll(&P, 1, 250);
    if (R < 0 && errno != EINTR)
      break;
    if (R <= 0)
      continue;
    FrameRead F = Conn->recv(Opts.FrameReadTimeoutMs < 0
                                 ? Deadline::never()
                                 : Deadline::inMs(Opts.FrameReadTimeoutMs));
    if (F.eof())
      break;
    if (!F.ok()) {
      // Diagnose and drop the connection: after a framing error the
      // stream position is unrecoverable, but the daemon keeps serving
      // everyone else.
      VerifyWireResponse E;
      E.IsError = true;
      E.Error = "frame error: " + F.Message;
      (void)Conn->send(serializeVerifyResponse(E));
      break;
    }
    std::string Out;
    if (isShardRequestPayload(F.Payload)) {
      Out = serializeShardResponse(serveShardRequest(Shard, F.Payload));
    } else if (isVerifyRequestPayload(F.Payload)) {
      Out = serializeVerifyResponse(handleVerify(F.Payload));
    } else {
      VerifyWireResponse E;
      E.IsError = true;
      E.ExitStatus = 2;
      E.Error = "unrecognized request magic";
      Out = serializeVerifyResponse(E);
    }
    if (!Conn->send(Out).ok())
      break;
  }
  {
    std::lock_guard<std::mutex> L(M);
    --Active;
  }
  DrainCV.notify_all();
}

int VerifyServer::run() {
  while (!Stopping.load()) {
    Result<std::unique_ptr<Transport>> C = Listener.accept(Deadline::inMs(250));
    if (!C.ok())
      continue; // timeout tick (Stopping check) or a transient accept error
    {
      std::lock_guard<std::mutex> L(M);
      if (Active >= Opts.MaxConnections) {
        // Backpressure: refuse loudly and retryably rather than queueing
        // without bound. The kernel backlog is the only queue.
        VerifyWireResponse Busy;
        Busy.IsError = true;
        Busy.Retryable = true;
        Busy.Error = "server at capacity (" +
                     std::to_string(Opts.MaxConnections) +
                     " connections); retry";
        (void)(*C)->send(serializeVerifyResponse(Busy));
        continue; // transport destructor closes the connection
      }
      ++Active;
    }
    std::shared_ptr<Transport> Conn(std::move(*C));
    std::thread([this, Conn] { serveConnection(Conn); }).detach();
  }
  std::unique_lock<std::mutex> L(M);
  DrainCV.wait(L, [&] { return Active == 0; });
  return 0;
}
