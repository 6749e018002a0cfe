//===- Replay.cpp - Layer-by-layer traced re-drive of one verification ----===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The traced run cannot see inside Verifier::run, so it calls the layers
// the verifier calls, in the same order, with a span around each call:
// parse, sema, the per-procedure VC passes exactly as `relaxc dump-vcs`
// builds them, one dischargeVC-equivalent per obligation (the portfolio
// one tier at a time through checkRange(i, i+1)), and renderReport. The
// exact counters it returns must equal the untraced run's; a difference
// means the replay is not the program that was timed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "ast/Printer.h"
#include "logic/FormulaOps.h"
#include "parser/Parser.h"
#include "solver/Z3Solver.h"
#include "vcgen/UnaryVCGen.h"

using namespace relax;
using namespace relax::bench;

namespace {

/// Times a backend's queries as `solver.z3` / `solver.z3.model` spans.
class TracedSolver : public Solver {
public:
  TracedSolver(Solver &Inner, Tracer &T) : Inner(Inner), T(T) {}
  const char *name() const override { return Inner.name(); }
  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &F) override {
    Tracer::Scope S(&T, "solver.z3");
    ++Checks;
    return Inner.checkSat(F);
  }
  Result<SatResult> checkSatWithModel(const std::vector<const BoolExpr *> &F,
                                      const VarRefSet &Vars,
                                      Model &M) override {
    Tracer::Scope S(&T, "solver.z3.model");
    return Inner.checkSatWithModel(F, Vars, M);
  }
  void setDeadline(const Deadline &D) override { Inner.setDeadline(D); }
  bool lastQueryDeadlined() const override {
    return Inner.lastQueryDeadlined();
  }
  uint64_t Checks = 0;

private:
  Solver &Inner;
  Tracer &T;
};

const char *tierSpan(TierKind K) {
  switch (K) {
  case TierKind::Simplify:
    return "logic";
  case TierKind::Bounded:
    return "solver.bounded";
  default:
    return "solver.z3";
  }
}

/// The verdict mapping of dischargeVC for an already-computed result.
VCStatus statusOf(const VC &C, const Result<SatResult> &R) {
  if (!R.ok())
    return VCStatus::SolverError;
  if (*R == SatResult::Unknown)
    return VCStatus::Unknown;
  bool Sat = *R == SatResult::Sat;
  if (C.Kind == VCKind::Validity)
    return Sat ? VCStatus::Failed : VCStatus::Proved;
  return Sat ? VCStatus::Proved : VCStatus::Failed;
}

/// One obligation through the tiered portfolio, mirroring dischargeVC on
/// the sequential portfolio path with every tier in its own span.
VCOutcome dischargeTiered(const VC &C, const BoolExpr *Q, PortfolioSolver &P,
                          SharedSolverCache &Shared, const Interner &Syms,
                          Tracer &T) {
  VCOutcome Out;
  Out.Condition = C;
  std::vector<const BoolExpr *> F{Q};
  Result<SatResult> R = SatResult::Unknown;
  bool FromCache = false;
  if (std::optional<SatResult> Hit = Shared.lookup(F)) {
    R = *Hit;
    FromCache = true;
  } else {
    for (size_t I = 0; I != P.tierCount(); ++I) {
      Tracer::Scope S(&T, tierSpan(P.tier(I)));
      R = P.checkRange(I, I + 1, F, nullptr, nullptr);
      if (P.lastSettled())
        break;
    }
    if (R.ok() && !P.lastQueryDeadlined())
      Shared.insert(F, *R);
  }
  Out.Status = statusOf(C, R);
  if (Out.Status == VCStatus::Failed && C.Kind == VCKind::Validity) {
    // The counterexample re-query, from the settling tier (or the whole
    // chain after a cache hit), with statistics paused as dischargeVC
    // pauses them.
    size_t From = FromCache ? 0 : static_cast<size_t>(P.lastSettledTier());
    Tracer::Scope S(&T, P.tier(From) == TierKind::Smt ? "solver.z3.model"
                                                      : tierSpan(P.tier(From)));
    PortfolioSolver::ScopedStatsPause Pause(P);
    Model M;
    VarRefSet Vars = freeVars(C.Formula);
    Result<SatResult> WithModel =
        P.checkRange(From, P.tierCount(), F, &Vars, &M);
    Out.Detail = WithModel.ok() && *WithModel == SatResult::Sat
                     ? "counterexample: " + formatModel(Syms, M)
                     : "counterexample exists";
  }
  return Out;
}

/// One obligation against the serve-mode warm cache, mirroring
/// SharedSolverCache::lookup in front of the persistent tier, with the
/// portable key build in its own span.
VCOutcome dischargeWarm(const VC &C, const BoolExpr *Q, SolverResultCache &Mem,
                        PersistentCache &Warm, Solver &Fallback,
                        const Interner &Syms, Tracer &T, Counters &K) {
  VCOutcome Out;
  Out.Condition = C;
  std::vector<const BoolExpr *> F{Q};
  std::vector<const BoolExpr *> Canonical =
      SolverResultCache::canonicalize(F);
  std::optional<SatResult> R = Mem.lookupCanonical(Canonical);
  if (!R) {
    std::string Key;
    {
      Tracer::Scope S(&T, "support.pcache.key");
      Key = persistentCacheKey(Warm.fingerprint(), F, Syms);
    }
    R = Warm.lookup(Key);
    if (R) {
      ++K["support.pcache.hits"];
      Mem.insertCanonical(std::move(Canonical), *R);
    }
  }
  if (!R) {
    // A cold obligation: the daemon would solve it; so does the replay.
    Out = dischargeVC(C, Q, Fallback, Syms, nullptr);
    return Out;
  }
  Out.Status = statusOf(C, *R);
  return Out;
}

} // namespace

Counters relax::bench::replay(Mode M, const CorpusProgram &P, Tracer &T,
                              PersistentCache *Warm, bool &Correct,
                              uint64_t &FormulaBytes) {
  Counters K;
  Correct = false;
  Tracer::Scope Root(&T, "verify");
  AstContext Ctx;
  SourceManager SM;
  SM.setBuffer(P.Name, P.Source);
  DiagnosticEngine Diags;
  Diags.setFileName(P.Name);
  std::optional<Program> Prog;
  {
    Tracer::Scope S(&T, "parser");
    Parser Ps(Ctx, SM, Diags);
    Prog = Ps.parseProgram();
  }
  if (!Prog)
    return K;
  std::optional<SemaInfo> Info;
  {
    Tracer::Scope S(&T, "sema");
    Sema SemaPass(*Prog, Diags);
    Info = SemaPass.run();
  }
  VerifyReport Report;
  if (!Info)
    return K;
  Report.SemaOk = true;

  std::unique_ptr<Z3Solver> Backend;
  std::unique_ptr<TracedSolver> Traced;
  std::unique_ptr<CachingSolver> Cached;
  std::unique_ptr<PortfolioSolver> Port;
  SharedSolverCache Shared;
  SolverResultCache Mem;
  {
    Tracer::Scope S(&T, "solver.setup");
    Backend = std::make_unique<Z3Solver>(Ctx.symbols());
    Traced = std::make_unique<TracedSolver>(*Backend, T);
    Cached = std::make_unique<CachingSolver>(*Traced);
    if (M == Mode::Tiered)
      Port = std::make_unique<PortfolioSolver>(Ctx, tieredOptions(), [&Ctx] {
        return std::make_unique<Z3Solver>(Ctx.symbols());
      });
  }

  // The VC passes, per procedure in declaration order (Verifier::run and
  // `relaxc dump-vcs` build them the same way).
  VCGenOptions GO;
  unsigned ErrorsBeforeGen = Diags.errorCount();
  auto Pre = [&](const Procedure &Proc) {
    return Proc.requiresClause() ? Proc.requiresClause() : Ctx.trueExpr();
  };
  auto Post = [&](const Procedure &Proc) {
    return Proc.ensuresClause() ? Proc.ensuresClause() : Ctx.trueExpr();
  };
  VCSet OSet, RSet;
  {
    Tracer::Scope S(&T, "vcgen");
    for (const Procedure &Proc : Prog->procedures()) {
      UnaryVCGen Gen(Ctx, *Prog, JudgmentKind::Original, Diags, GO);
      Gen.setProcName(procDisplayName(Proc, Ctx.symbols()));
      Gen.genTriple(Pre(Proc), Proc.body(), Post(Proc));
      OSet.append(Gen.take());
    }
  }
  auto Discharge = [&](VCSet &Set, JudgmentReport &J) {
    for (const VC &C : Set.VCs) {
      Tracer::Scope S(&T, "discharge");
      const BoolExpr *Q = vcQuery(Ctx, C);
      if (M == Mode::Tiered)
        J.Outcomes.push_back(
            dischargeTiered(C, Q, *Port, Shared, Ctx.symbols(), T));
      else if (M == Mode::Serve)
        J.Outcomes.push_back(dischargeWarm(C, Q, Mem, *Warm, *Cached,
                                           Ctx.symbols(), T, K));
      else
        J.Outcomes.push_back(
            dischargeVC(C, Q, *Cached, Ctx.symbols(), nullptr));
    }
  };
  Report.Original.Judgment = JudgmentKind::Original;
  Discharge(OSet, Report.Original);
  {
    Tracer::Scope S(&T, "vcgen");
    for (const Procedure &Proc : Prog->procedures()) {
      std::string Name = procDisplayName(Proc, Ctx.symbols());
      if (Info->needsIntermediate(Proc)) {
        UnaryVCGen IGen(Ctx, *Prog, JudgmentKind::Intermediate, Diags, GO);
        IGen.setProcName(Name);
        IGen.genTriple(Pre(Proc), Proc.body(), Post(Proc));
        RSet.append(IGen.take());
      }
      RelationalVCGen Gen(Ctx, *Prog, Diags, GO);
      Gen.setProcName(Name);
      Gen.genTriple(effectiveRelRequires(Ctx, *Prog, Proc), Proc.body(),
                    Proc.relEnsuresClause() ? Proc.relEnsuresClause()
                                            : Ctx.trueExpr());
      RSet.append(Gen.take());
    }
  }
  Report.Relaxed.Judgment = JudgmentKind::Relaxed;
  Discharge(RSet, Report.Relaxed);
  Report.GenErrors = Diags.errorCount() > ErrorsBeforeGen;

  std::string Text;
  {
    Tracer::Scope S(&T, "report");
    Text = renderReport(Report, Ctx.symbols());
  }
  Correct = verdictMatches(Report, Text, P.Want);

  // Outside every span: the printed size of the generated obligations.
  Printer Pr(Ctx.symbols());
  FormulaBytes = 0;
  for (const VCSet *Set : {&OSet, &RSet})
    for (const VC &C : Set->VCs)
      FormulaBytes += Pr.print(C.Formula).size();

  K["vcgen.vcs"] = Report.totalVCs();
  K["verdict.proved"] = Report.Original.count(VCStatus::Proved) +
                        Report.Relaxed.count(VCStatus::Proved);
  K["verdict.failed"] = Report.Original.count(VCStatus::Failed) +
                        Report.Relaxed.count(VCStatus::Failed);
  if (M == Mode::Z3) {
    K["solver.z3.queries"] = Traced->Checks;
    K["discharge.cache_hits"] = Cached->hitCount();
    K["discharge.cache_misses"] = Cached->missCount();
  } else if (M == Mode::Serve) {
    K.emplace("support.pcache.hits", 0);
    K["solver.z3.queries"] = Traced->Checks;
    K["discharge.cache_hits"] = Mem.hitCount();
    K["discharge.cache_misses"] = Mem.missCount();
  } else {
    const std::vector<PortfolioStats::TierStat> &TS = Port->stats().Tiers;
    K["logic.settled"] = TS[0].Settled;
    K["logic.gave_up"] = TS[0].GaveUp;
    K["solver.bounded.settled"] = TS[1].Settled;
    K["solver.bounded.gave_up"] = TS[1].GaveUp;
    K["solver.bounded.budget_trips"] = TS[1].BudgetTrips;
    K["solver.bounded.candidates"] = Port->boundedCandidates();
    K["solver.bounded.quant_steps"] = Port->boundedQuantSteps();
    K["solver.z3.queries"] = TS[2].Settled + TS[2].GaveUp;
    K["solver.z3.gave_up"] = TS[2].GaveUp;
    K["discharge.cache_hits"] = Shared.hitCount();
    K["discharge.cache_misses"] = Shared.missCount();
    K["discharge.escalations"] = Port->stats().Escalations;
    K["discharge.queries"] = Port->stats().Queries;
  }
  return K;
}
