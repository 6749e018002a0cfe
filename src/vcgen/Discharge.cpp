//===- Discharge.cpp - Obligation discharge subsystem -------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "vcgen/Discharge.h"

#include "ast/Printer.h"
#include "support/PersistentCache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>

using namespace relax;

const char *relax::vcStatusName(VCStatus S) {
  switch (S) {
  case VCStatus::Proved:
    return "proved";
  case VCStatus::Failed:
    return "failed";
  case VCStatus::Unknown:
    return "unknown";
  case VCStatus::SolverError:
    return "error";
  }
  return "?";
}

const BoolExpr *relax::vcQuery(AstContext &Ctx, const VC &C) {
  return C.Kind == VCKind::Validity ? Ctx.notExpr(C.Formula) : C.Formula;
}

void DischargeStats::merge(const DischargeStats &O) {
  Portfolio.merge(O.Portfolio);
  SharedCacheHits += O.SharedCacheHits;
  SharedCacheMisses += O.SharedCacheMisses;
  BoundedCandidates += O.BoundedCandidates;
  BoundedQuantSteps += O.BoundedQuantSteps;
  Search.merge(O.Search);
  EscalatedObligations += O.EscalatedObligations;
  StolenTasks += O.StolenTasks;
}

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Past-the-end tier index: a range ending here runs to the end of the
/// chain, whatever its length.
constexpr size_t AllTiers = static_cast<size_t>(-1);

/// Runs tiers [\p From, \p To) of \p S's chain (clamped to its length),
/// extracting a model on Sat when \p Vars / \p M are set. A plain backend
/// is a one-tier chain, so any range containing tier 0 runs it whole.
Result<SatResult> runTiers(Solver &S, size_t From, size_t To,
                           const std::vector<const BoolExpr *> &F,
                           const VarRefSet *Vars, Model *M) {
  if (auto *P = dynamic_cast<PortfolioSolver *>(&S))
    return P->checkRange(From, std::min(To, P->tierCount()), F, Vars, M);
  return Vars && M ? S.checkSatWithModel(F, *Vars, *M) : S.checkSat(F);
}

/// Maps a sat verdict \p R for \p Out's condition onto a discharge
/// status and detail. Out.Condition must already be set. A failed
/// validity obligation re-queries tiers [\p ModelFrom, end) of \p S for
/// its counterexample, with a portfolio's statistics paused so the
/// re-query does not double-count queries or per-tier settlements.
void applyVerdict(VCOutcome &Out, const Result<SatResult> &R,
                  const Interner &Syms, Solver &S, size_t ModelFrom,
                  const std::vector<const BoolExpr *> &Formulas) {
  if (!R.ok()) {
    Out.Status = VCStatus::SolverError;
    Out.Detail = R.message();
    return;
  }
  if (Out.Condition.Kind == VCKind::Validity) {
    switch (*R) {
    case SatResult::Unsat:
      Out.Status = VCStatus::Proved;
      break;
    case SatResult::Sat: {
      Out.Status = VCStatus::Failed;
      // Re-query with model extraction so the report shows a concrete
      // witness state (pair) falsifying the obligation.
      Model Counterexample;
      VarRefSet Vars = freeVars(Out.Condition.Formula);
      std::optional<PortfolioSolver::ScopedStatsPause> Pause;
      if (auto *P = dynamic_cast<PortfolioSolver *>(&S))
        Pause.emplace(*P);
      Result<SatResult> WithModel =
          runTiers(S, ModelFrom, AllTiers, Formulas, &Vars, &Counterexample);
      if (WithModel.ok() && *WithModel == SatResult::Sat)
        Out.Detail = "counterexample: " + formatModel(Syms, Counterexample);
      else
        Out.Detail = "counterexample exists";
      break;
    }
    case SatResult::Unknown:
      Out.Status = VCStatus::Unknown;
      Out.Detail = "solver returned unknown";
      break;
    }
    return;
  }
  switch (*R) {
  case SatResult::Sat:
    Out.Status = VCStatus::Proved;
    break;
  case SatResult::Unsat:
    Out.Status = VCStatus::Failed;
    Out.Detail = "the choice predicate admits no assignment";
    break;
  case SatResult::Unknown:
    Out.Status = VCStatus::Unknown;
    Out.Detail = "solver returned unknown";
    break;
  }
}

void appendTrail(std::string &Trail, const std::string &More) {
  if (More.empty())
    return;
  if (!Trail.empty())
    Trail += "; ";
  Trail += More;
}

/// The one settle step, shared by every discharge path: a shared-cache
/// lookup, then tiers [\p From, \p To) of \p S on \p Query, then — once
/// the query is settled — the insert and the verdict mapping. Returns
/// false, leaving the verdict open, when every tier in a range that stops
/// short of the chain's end gave up; the caller escalates the obligation
/// to a later range. \p Out accumulates time, trail and conflicts across
/// the ranges one obligation passes through; Out.Condition must be set.
///
/// \p ModelFloor is the first tier the calling thread may run (tiers
/// before it build nodes): a verdict served from the cache re-queries for
/// its counterexample from there, a computed one from the tier that
/// settled it, so a failed obligation does not re-pay earlier tiers'
/// give-up budgets. \p S's deadline must already be armed.
bool settle(VCOutcome &Out, const BoolExpr *Query, Solver &S, size_t From,
            size_t To, size_t ModelFloor, const Interner &Syms,
            SharedSolverCache *Shared) {
  auto Start = Clock::now();
  std::vector<const BoolExpr *> F{Query};
  std::optional<SatResult> Cached =
      Shared ? Shared->lookup(F) : std::nullopt;
  Result<SatResult> R = Cached ? *Cached : SatResult::Unknown;
  size_t ModelFrom = ModelFloor;
  if (Cached) {
    Out.SettledBy = "cache";
  } else {
    R = runTiers(S, From, To, F, nullptr, nullptr);
    // Captured before the verdict mapping: a counterexample re-query
    // would overwrite the per-query conflict delta with its own.
    Out.BoundedConflicts += S.lastQueryBoundedConflicts();
    if (R.ok()) {
      appendTrail(Out.Trail, S.giveUpTrail());
      auto *P = dynamic_cast<PortfolioSolver *>(&S);
      if (P && !P->lastSettled() && To < P->tierCount()) {
        Out.Millis += millisSince(Start);
        return false;
      }
      Out.SettledBy = S.settledBy();
      if (P && P->lastSettledTier() >= 0)
        ModelFrom = static_cast<size_t>(P->lastSettledTier());
      // The one insert site. Deadline gave-ups are time-dependent, never
      // cacheable: a later run of the same query with time left must not
      // be served "unknown".
      if (Shared && !S.lastQueryDeadlined())
        Shared->insert(F, *R);
    }
  }
  applyVerdict(Out, R, Syms, S, ModelFrom, F);
  // Rewrites an Unknown's detail when the solver gave up on the query
  // deadline, so reports (and the driver's give-up summary) name the
  // reason. Unknown ran no counterexample re-query, so the solver's
  // last-query state is still this query's.
  if (!Cached && Out.Status == VCStatus::Unknown && S.lastQueryDeadlined())
    Out.Detail = "gave up: deadline expired";
  Out.Millis += millisSince(Start);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// SharedSolverCache and the persistent tier
//===----------------------------------------------------------------------===//

namespace {

const char *cacheTagWord(VarTag T) {
  switch (T) {
  case VarTag::Plain:
    return "plain";
  case VarTag::Orig:
    return "o";
  case VarTag::Rel:
    return "r";
  }
  return "?";
}

} // namespace

std::string
relax::persistentCacheKey(const std::string &Fingerprint,
                          const std::vector<const BoolExpr *> &Query,
                          const Interner &Syms) {
  std::string Key = "config " + Fingerprint + "\n";
  // Kind declarations first (the portable analogue of the shard wire
  // format's var lines), sorted for canonicity.
  VarRefSet Free;
  for (const BoolExpr *F : Query)
    collectFreeVars(F, Free);
  std::vector<std::string> VarLines;
  for (const VarRef &V : Free)
    VarLines.push_back(std::string("var ") +
                       (V.Kind == VarKind::Int ? "int" : "array") + " " +
                       cacheTagWord(V.Tag) + " " +
                       std::string(Syms.text(V.Name)));
  std::sort(VarLines.begin(), VarLines.end());
  for (const std::string &L : VarLines)
    Key += L + "\n";
  // Printed formulas, sorted lexicographically: the canonical order must
  // not depend on structural hashes (nominal) or pointers (per-process).
  Printer P(Syms);
  std::vector<std::string> Formulas;
  for (const BoolExpr *F : Query)
    Formulas.push_back(P.print(F));
  std::sort(Formulas.begin(), Formulas.end());
  for (const std::string &F : Formulas)
    Key += "formula " + F + "\n";
  return Key;
}

std::optional<SatResult>
SharedSolverCache::lookup(const std::vector<const BoolExpr *> &Query) {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<const BoolExpr *> Canonical =
      SolverResultCache::canonicalize(Query);
  if (std::optional<SatResult> R = Cache.lookupCanonical(Canonical))
    return R;
  if (!Persist)
    return std::nullopt;
  std::optional<SatResult> R =
      Persist->lookup(persistentCacheKey(Persist->fingerprint(), Query,
                                         *Syms));
  // Pull a disk hit into the memory tier so this run's duplicates skip
  // the key build (and so the stats keep counting them as memory hits).
  if (R)
    Cache.insertCanonical(std::move(Canonical), *R);
  return R;
}

void SharedSolverCache::insert(const std::vector<const BoolExpr *> &Query,
                               SatResult R) {
  std::lock_guard<std::mutex> Lock(M);
  Cache.insert(Query, R);
  // Callers only insert final non-deadline verdicts (the discipline this
  // cache documents), so forwarding is safe; the persistent tier drops
  // Unknown itself and checks verify-sampled recomputations here.
  if (Persist)
    Persist->insert(persistentCacheKey(Persist->fingerprint(), Query, *Syms),
                    R);
}

void SharedSolverCache::attachPersistent(PersistentCache *P,
                                         const Interner *S) {
  std::lock_guard<std::mutex> Lock(M);
  Persist = P;
  Syms = S;
}

VCOutcome relax::dischargeVC(const VC &Condition, const BoolExpr *Query,
                             Solver &S, const Interner &Syms,
                             SharedSolverCache *Shared) {
  VCOutcome Out;
  Out.Condition = Condition;
  settle(Out, Query, S, 0, AllTiers, 0, Syms, Shared);
  return Out;
}

//===----------------------------------------------------------------------===//
// DischargeScheduler
//===----------------------------------------------------------------------===//

DischargeScheduler::DischargeScheduler(AstContext &Ctx, Config Cfg)
    : Ctx(Ctx), Cfg(std::move(Cfg)) {
  if (this->Cfg.Portfolio)
    Workers.push_back(std::make_unique<PortfolioSolver>(
        Ctx, *this->Cfg.Portfolio, this->Cfg.SmtFactory));
  if (this->Cfg.PCache)
    Shared.attachPersistent(this->Cfg.PCache, &Ctx.symbols());
}

DischargeScheduler::~DischargeScheduler() = default;

Deadline DischargeScheduler::perVcDeadline() const {
  Deadline D = Cfg.Global;
  if (Cfg.VcTimeoutMs >= 0)
    D = Deadline::earliest(D, Deadline::inMs(Cfg.VcTimeoutMs));
  return D;
}

DischargeStats DischargeScheduler::stats() const {
  DischargeStats S;
  if (Cfg.Portfolio)
    for (const std::unique_ptr<Solver> &W : Workers) {
      const auto &P = static_cast<const PortfolioSolver &>(*W);
      S.Portfolio.merge(P.stats());
      S.BoundedCandidates += P.boundedCandidates();
      S.BoundedQuantSteps += P.boundedQuantSteps();
      S.Search.merge(P.boundedSearchStats());
    }
  S.SharedCacheHits = Shared.hitCount();
  S.SharedCacheMisses = Shared.missCount();
  S.EscalatedObligations = Escalated;
  S.StolenTasks = Stolen;
  return S;
}

void DischargeScheduler::discharge(VCSet Set, JudgmentReport &Report,
                                   Solver &Fallback) {
  Report.Derivation = std::move(Set.Derivation);
  std::vector<VC> &VCs = Set.VCs;
  if (VCs.empty())
    return;

  // Pre-build every query formula on this thread: node construction goes
  // through the (single-threaded) hash-consing factories.
  std::vector<const BoolExpr *> Queries;
  Queries.reserve(VCs.size());
  for (const VC &C : VCs)
    Queries.push_back(vcQuery(Ctx, C));

  std::vector<VCOutcome> Outcomes(VCs.size());

  // Single-backend workers are built by SmtFactory; without one the run
  // stays on the constructor-supplied backend.
  size_t Jobs = std::min<size_t>(Cfg.Jobs, VCs.size());
  if (Jobs > 1 && (Cfg.Portfolio || Cfg.SmtFactory)) {
    for (size_t I = 0; I != VCs.size(); ++I)
      Outcomes[I].Condition = VCs[I];
    dischargeParallel(Queries, Outcomes);
  } else {
    // Depth-first: each obligation runs the whole chain before the next.
    // The single-backend path stays cache-free so a driver's
    // CachingSolver wrapper observes every query — unless a persistent
    // cache is armed, which must front every configuration.
    Solver &S = Cfg.Portfolio ? *Workers[0] : Fallback;
    SharedSolverCache *Cache = Cfg.Portfolio || Cfg.PCache ? &Shared : nullptr;
    for (size_t I = 0; I != VCs.size(); ++I) {
      S.setDeadline(perVcDeadline());
      Outcomes[I] = dischargeVC(VCs[I], Queries[I], S, Ctx.symbols(), Cache);
    }
  }

  // VC order, not completion order: reports are deterministic.
  for (VCOutcome &Out : Outcomes) {
    Report.TotalMillis += Out.Millis;
    Report.Outcomes.push_back(std::move(Out));
  }
}

void DischargeScheduler::dischargeParallel(
    const std::vector<const BoolExpr *> &Qs, std::vector<VCOutcome> &Outcomes) {
  const Interner &Syms = Ctx.symbols();
  size_t N = Qs.size();

  // Stage boundaries over the chain: [0, FW) the prepare-time simplify
  // prefix, [FW, FE) inline on the worker that pops the obligation,
  // [FE, end) the escalation queue. A single backend is the one-stage
  // chain [0, 1), so all of it runs inline.
  size_t FW = 0, FE = AllTiers;
  if (Cfg.Portfolio) {
    const auto &Main = static_cast<const PortfolioSolver &>(*Workers[0]);
    FW = Main.firstWorkerTier();
    FE = Main.firstEscalationTier();
  }

  // Prepare stage on this thread: the simplify tier builds nodes, so it
  // cannot run on a worker.
  std::vector<size_t> Pending;
  Pending.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    if (FW > 0) {
      Workers[0]->setDeadline(perVcDeadline());
      if (settle(Outcomes[I], Qs[I], *Workers[0], 0, FW, 0, Syms, &Shared))
        continue;
    }
    Pending.push_back(I);
  }
  if (Pending.empty())
    return;

  unsigned Jobs =
      static_cast<unsigned>(std::min<size_t>(Cfg.Jobs, Pending.size()));
  // Worker solvers live as long as the scheduler, so both passes share
  // each worker's contexts and memos.
  while (Workers.size() < Jobs)
    Workers.push_back(Cfg.Portfolio
                          ? std::make_unique<PortfolioSolver>(
                                Ctx, *Cfg.Portfolio, Cfg.SmtFactory)
                          : Cfg.SmtFactory());

  // Per-worker deques, round-robin seeded. Owners pop the front; thieves
  // pop the back, so a steal grabs the work its owner would reach last.
  struct WorkerDeque {
    std::mutex M;
    std::deque<size_t> Q;
  };
  std::vector<WorkerDeque> Deques(Jobs);
  for (size_t K = 0; K != Pending.size(); ++K)
    Deques[K % Jobs].Q.push_back(Pending[K]);

  std::atomic<size_t> PrimaryRemaining{Pending.size()};
  std::mutex EscM;
  std::condition_variable EscCV; // escalation pushed / primary drained
  std::vector<size_t> Esc; // guarded by EscM; never shrinks
  size_t EscNext = 0;      // guarded by EscM
  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> Escalations{0};

  auto PopOwn = [&](unsigned W, size_t &I) {
    std::lock_guard<std::mutex> L(Deques[W].M);
    if (Deques[W].Q.empty())
      return false;
    I = Deques[W].Q.front();
    Deques[W].Q.pop_front();
    return true;
  };
  auto StealFrom = [&](unsigned W, size_t &I) {
    for (unsigned D = 1; D != Jobs; ++D) {
      WorkerDeque &V = Deques[(W + D) % Jobs];
      std::lock_guard<std::mutex> L(V.M);
      if (!V.Q.empty()) {
        I = V.Q.back();
        V.Q.pop_back();
        return true;
      }
    }
    return false;
  };
  auto PushEsc = [&](size_t I) {
    {
      std::lock_guard<std::mutex> L(EscM);
      Esc.push_back(I);
    }
    EscCV.notify_all();
  };
  auto PopEsc = [&](size_t &I) {
    std::lock_guard<std::mutex> L(EscM);
    if (EscNext == Esc.size())
      return false;
    I = Esc[EscNext++];
    return true;
  };

  auto WorkerFn = [&](unsigned W) {
    Solver &S = *Workers[W];
    // Model re-queries on a worker must skip the simplify prefix (it
    // builds nodes); the query already failed to fold there anyway.
    auto RunStage = [&](size_t I, size_t From, size_t To) {
      S.setDeadline(perVcDeadline());
      return settle(Outcomes[I], Qs[I], S, From, To, FW, Syms, &Shared);
    };
    auto RunInline = [&](size_t I) {
      if (!RunStage(I, FW, FE)) {
        Escalations.fetch_add(1);
        PushEsc(I);
      }
    };
    auto RunEscalated = [&](size_t I) { RunStage(I, FE, AllTiers); };

    // Escalations are pushed before the primary counter is decremented,
    // so once PrimaryRemaining reads 0 every escalation is visible.
    auto FinishPrimary = [&] {
      if (PrimaryRemaining.fetch_sub(1) == 1) {
        // Take (and drop) the wait mutex before notifying: a waiter that
        // evaluated its predicate just before the decrement is ordered
        // into the condition variable's queue by the time we can acquire
        // EscM, so this final notification cannot be lost.
        { std::lock_guard<std::mutex> L(EscM); }
        EscCV.notify_all();
      }
    };
    while (true) {
      size_t I;
      if (PopOwn(W, I)) {
        RunInline(I);
        FinishPrimary();
        continue;
      }
      if (StealFrom(W, I)) {
        Steals.fetch_add(1);
        RunInline(I);
        FinishPrimary();
        continue;
      }
      // No inline work anywhere; help drain escalations.
      if (PopEsc(I)) {
        RunEscalated(I);
        continue;
      }
      if (PrimaryRemaining.load() == 0) {
        // All inline work done, so every escalation has been pushed;
        // re-check once more, then we are finished.
        if (PopEsc(I)) {
          RunEscalated(I);
          continue;
        }
        break;
      }
      // Primary tasks never appear after seeding, so an idle worker can
      // only be woken by an escalation push or the last primary task
      // completing — park on the condition instead of spinning.
      std::unique_lock<std::mutex> L(EscM);
      EscCV.wait(L, [&] {
        return EscNext != Esc.size() || PrimaryRemaining.load() == 0;
      });
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Jobs - 1);
  for (unsigned W = 1; W != Jobs; ++W)
    Pool.emplace_back(WorkerFn, W);
  WorkerFn(0);
  for (std::thread &T : Pool)
    T.join();

  Stolen += Steals.load();
  Escalated += Escalations.load();
}
