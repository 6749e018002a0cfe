//===- Workloads.cpp - How each workload runs one verification ------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "parser/Parser.h"
#include "solver/Z3Solver.h"

#include <unistd.h>

#include <cstdio>
#include <sstream>

using namespace relax;
using namespace relax::bench;

PortfolioOptions relax::bench::tieredOptions() {
  PortfolioOptions PO;
  PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Smt};
  VerifyWireRequest Defaults;
  PO.Bounded.MaxQuantSteps = Defaults.BoundedSteps;
  PO.Bounded.Jobs = 1;
  PO.Bounded.Learning = Defaults.BoundedLearning;
  PO.Bounded.Restarts = Defaults.BoundedRestarts;
  PO.Bounded.MaxNogoods = static_cast<uint32_t>(Defaults.BoundedMaxNogoods);
  return PO;
}

bool relax::bench::verdictMatches(const VerifyReport &R,
                                  const std::string &Text, Answer Want) {
  if (Want == Answer::Verified)
    return R.verified() &&
           Text.find("\nVERIFIED:") != std::string::npos;
  size_t Refuted =
      R.Original.count(VCStatus::Failed) + R.Relaxed.count(VCStatus::Failed);
  return !R.verified() && R.SemaOk && !R.GenErrors && Refuted > 0 &&
         Text.find("NOT VERIFIED") != std::string::npos;
}

Timed relax::bench::verifyLocal(Mode M, const CorpusProgram &P, Counters *C) {
  Timed Out;
  Clock::time_point Start = Clock::now();
  AstContext Ctx;
  SourceManager SM;
  SM.setBuffer(P.Name, P.Source);
  DiagnosticEngine Diags;
  Diags.setFileName(P.Name);
  Parser Ps(Ctx, SM, Diags);
  std::optional<Program> Prog = Ps.parseProgram();
  if (!Prog) {
    Out.Ms = msBetween(Start, Clock::now());
    return Out;
  }
  Z3Solver Backend(Ctx.symbols());
  CachingSolver Cached(Backend);
  Verifier V(Ctx, *Prog, Cached, Diags);
  Verifier::Options VO;
  DischargeStats Stats;
  VO.StatsOut = &Stats;
  if (M == Mode::Tiered) {
    VO.Portfolio = tieredOptions();
    VO.SmtFactory = [&Ctx] {
      return std::make_unique<Z3Solver>(Ctx.symbols());
    };
  }
  VerifyReport Report = V.run(VO);
  std::string Text = renderReport(Report, Ctx.symbols());
  Out.Ms = msBetween(Start, Clock::now());
  Out.Correct = verdictMatches(Report, Text, P.Want);
  if (!C)
    return Out;
  Counters &K = *C;
  K["vcgen.vcs"] = Report.totalVCs();
  K["verdict.proved"] = Report.Original.count(VCStatus::Proved) +
                        Report.Relaxed.count(VCStatus::Proved);
  K["verdict.failed"] = Report.Original.count(VCStatus::Failed) +
                        Report.Relaxed.count(VCStatus::Failed);
  if (M == Mode::Z3) {
    K["solver.z3.queries"] = Cached.missCount();
    K["discharge.cache_hits"] = Cached.hitCount();
    K["discharge.cache_misses"] = Cached.missCount();
    return Out;
  }
  const std::vector<PortfolioStats::TierStat> &T = Stats.Portfolio.Tiers;
  K["logic.settled"] = T[0].Settled;
  K["logic.gave_up"] = T[0].GaveUp;
  K["solver.bounded.settled"] = T[1].Settled;
  K["solver.bounded.gave_up"] = T[1].GaveUp;
  K["solver.bounded.budget_trips"] = T[1].BudgetTrips;
  K["solver.bounded.candidates"] = Stats.BoundedCandidates;
  K["solver.bounded.quant_steps"] = Stats.BoundedQuantSteps;
  K["solver.z3.queries"] = T[2].Settled + T[2].GaveUp;
  K["solver.z3.gave_up"] = T[2].GaveUp;
  K["discharge.cache_hits"] = Stats.SharedCacheHits;
  K["discharge.cache_misses"] = Stats.SharedCacheMisses;
  K["discharge.escalations"] = Stats.Portfolio.Escalations;
  K["discharge.queries"] = Stats.Portfolio.Queries;
  return Out;
}

//===----------------------------------------------------------------------===//
// Serve mode
//===----------------------------------------------------------------------===//

VerifyWireRequest relax::bench::serveRequest(const CorpusProgram &P) {
  VerifyWireRequest R;
  R.FileName = P.Name;
  R.Source = P.Source;
  return R;
}

bool ServeRig::start(const std::string &SocketPath, unsigned Clients,
                     std::string &Error) {
  Path = SocketPath;
  Address = "unix:" + SocketPath;
  VerifyServerOptions O;
  O.Address = Address;
  O.MaxConnections = Clients + 2;
  Result<std::unique_ptr<VerifyServer>> S = VerifyServer::create(O);
  if (!S.ok()) {
    Error = S.message();
    return false;
  }
  Server = std::move(*S);
  Loop = std::thread([this] { Server->run(); });
  for (unsigned I = 0; I != Clients; ++I) {
    Result<std::unique_ptr<Transport>> C = connectSocket(Address, 10'000);
    if (!C.ok()) {
      Error = C.message();
      return false;
    }
    Conns.push_back(std::move(*C));
  }
  return true;
}

namespace {

/// The counters of a served report and its `--solver-stats` block.
Counters daemonCounters(const std::string &Report) {
  Counters K;
  std::istringstream In(Report);
  std::string L;
  while (std::getline(In, L)) {
    unsigned long long A, B, C;
    size_t Colon = L.find(": ");
    if (L.rfind("|-", 0) == 0 && Colon != std::string::npos &&
        std::sscanf(L.c_str() + Colon,
                    ": %llu VCs, %llu proved, %llu failed", &A, &B,
                    &C) == 3) {
      K["vcgen.vcs"] += A;
      K["verdict.proved"] += B;
      K["verdict.failed"] += C;
    } else if (std::sscanf(L.c_str(),
                           "  caching solver: %*u hits, %llu misses",
                           &A) == 1) {
      K["solver.z3.queries"] = A;
    } else if (std::sscanf(L.c_str(),
                           "  shared result cache: %llu hits, %llu misses",
                           &A, &B) == 2) {
      K["discharge.cache_hits"] = A;
      K["discharge.cache_misses"] = B;
    } else if (std::sscanf(L.c_str(),
                           "  persistent cache: %*u entries loaded, %llu "
                           "hits",
                           &A) == 1) {
      K["support.pcache.hits_total"] = A;
    }
  }
  return K;
}

} // namespace

Timed ServeRig::verify(unsigned Client, const CorpusProgram &P,
                       Counters *Stats) {
  Timed Out;
  VerifyWireRequest Req = serveRequest(P);
  Req.SolverStats = Stats != nullptr;
  std::string Payload = serializeVerifyRequest(Req);
  Clock::time_point Start = Clock::now();
  Transport &C = *Conns[Client];
  if (!C.send(Payload).ok()) {
    Out.Ms = msBetween(Start, Clock::now());
    return Out;
  }
  FrameRead F = C.recv(Deadline::inMs(120'000));
  Out.Ms = msBetween(Start, Clock::now());
  if (!F.ok())
    return Out;
  Out.WireBytes = Payload.size() + F.Payload.size();
  Result<VerifyWireResponse> R = parseVerifyResponse(F.Payload);
  if (!R.ok())
    return Out;
  Out.Refused = R->IsError && R->Retryable;
  bool WantVerified = P.Want == Answer::Verified;
  Out.Correct = !R->IsError && R->ExitStatus == (WantVerified ? 0 : 1) &&
                R->Report.find(WantVerified ? "\nVERIFIED:"
                                            : "NOT VERIFIED") !=
                    std::string::npos;
  if (Stats)
    *Stats = daemonCounters(R->Report);
  return Out;
}

void ServeRig::stop() {
  for (std::unique_ptr<Transport> &C : Conns)
    C->close();
  Conns.clear();
  if (Server) {
    Server->requestStop();
    if (Loop.joinable())
      Loop.join();
    Server.reset();
  }
  if (!Path.empty()) {
    ::unlink(Path.c_str());
    Path.clear();
  }
}
