//===- fault_tests.cpp - Fault-injection chaos suite --------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// The resilience layer is pinned four ways:
//
//  * the fault registry itself: spec parsing is exact (ppm, no floats),
//    draws are a pure function of (seed, site, index), and an unarmed
//    registry never fires;
//  * deadlines: an expired Deadline settles queries as "deadline"
//    gave-ups that are never cached, and a trickling peer cannot extend
//    a timed frame read;
//  * pool health: kill-between-requests respawns exactly once, a failed
//    round trip gets exactly one sound retry, exhausted respawn budgets
//    transition slots to Dead, and an all-dead pool degrades (sticky);
//  * chaos end-to-end: under injected worker kills (including mid-frame
//    garbage), parent-side frame faults, spawn failures, response
//    delays, and full pool death, verification reports of the six case
//    studies and a generated-program corpus are bit-identical
//    (Status/Detail/Id) to the fault-free in-process run.
//
//===----------------------------------------------------------------------===//

#include "GenProgram.h"
#include "TestUtil.h"

#include "logic/FormulaOps.h"
#include "solver/BoundedSolver.h"
#include "solver/ShardPool.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"
#include "vcgen/Discharge.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <thread>

#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace relax;

namespace {

//===----------------------------------------------------------------------===//
// The fault registry
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParsesExactRatesAndRejectsGarbage) {
  FaultRegistry &R = FaultRegistry::instance();
  EXPECT_FALSE(R.armed());

  {
    ScopedFaults F("seed=7,worker-exit=0.3,frame-write=1,delay-ms=25");
    ASSERT_TRUE(F.status().ok()) << F.status().message();
    EXPECT_TRUE(R.armed());
    EXPECT_EQ(R.spec(), "seed=7,worker-exit=0.3,frame-write=1,delay-ms=25");
    EXPECT_EQ(R.delayMs(), 25);
  }
  EXPECT_FALSE(R.armed());

  // Fractional rates parse exactly — .25 and 0.250000 are the same ppm.
  for (const char *Ok :
       {"frame-read=0", "frame-read=1", "frame-read=.25",
        "frame-read=0.250000", "solver-call=0.000001", "response-delay=1"})
    EXPECT_TRUE(FaultRegistry::instance().arm(Ok).ok()) << Ok;
  FaultRegistry::instance().disarm();

  for (const char *Bad :
       {"", "seed=", "seed=x", "frame-read=1.5", "frame-read=-0.1",
        "frame-read=0.0000001", "no-such-site=1", "frame-read",
        "frame-read=0.1,", "delay-ms=abc"}) {
    EXPECT_FALSE(FaultRegistry::instance().arm(Bad).ok()) << "accepted: " << Bad;
    EXPECT_FALSE(FaultRegistry::instance().armed())
        << "armed after bad spec: " << Bad;
  }
}

TEST(FaultSpec, DrawsAreDeterministicPerSiteAndSeed) {
  auto Record = [] {
    std::vector<bool> Fired;
    for (int I = 0; I != 200; ++I)
      Fired.push_back(FaultRegistry::shouldFail(FaultSite::FrameRead));
    return Fired;
  };

  std::vector<bool> A, B;
  {
    ScopedFaults F("seed=5,frame-read=0.5");
    ASSERT_TRUE(F.status().ok());
    A = Record();
  }
  {
    ScopedFaults F("seed=5,frame-read=0.5");
    ASSERT_TRUE(F.status().ok());
    B = Record();
  }
  EXPECT_EQ(A, B) << "same spec must fire the same draws";
  size_t Fires = 0;
  for (bool V : A)
    Fires += V ? 1 : 0;
  EXPECT_GT(Fires, 50u);
  EXPECT_LT(Fires, 150u);

  {
    // Draw indices are per-site: a rate-0 site never fires but still
    // counts draws; a rate-1 site always fires.
    ScopedFaults F("seed=5,frame-read=0,frame-write=1");
    ASSERT_TRUE(F.status().ok());
    for (int I = 0; I != 20; ++I) {
      EXPECT_FALSE(FaultRegistry::shouldFail(FaultSite::FrameRead));
      EXPECT_TRUE(FaultRegistry::shouldFail(FaultSite::FrameWrite));
    }
    FaultRegistry &R = FaultRegistry::instance();
    EXPECT_EQ(R.drawCount(FaultSite::FrameRead), 20u);
    EXPECT_EQ(R.firedCount(FaultSite::FrameRead), 0u);
    EXPECT_EQ(R.firedCount(FaultSite::FrameWrite), 20u);
    // Unarmed sites are untouched.
    EXPECT_EQ(R.drawCount(FaultSite::WorkerSpawn), 0u);
  }
}

TEST(FaultSpec, ArmsFromEnvironment) {
  ASSERT_EQ(::unsetenv("RELAXC_FAULTS"), 0);
  EXPECT_TRUE(FaultRegistry::instance().armFromEnvironment().ok());
  EXPECT_FALSE(FaultRegistry::instance().armed()) << "unset var must no-op";

  ASSERT_EQ(::setenv("RELAXC_FAULTS", "seed=9,solver-call=1", 1), 0);
  EXPECT_TRUE(FaultRegistry::instance().armFromEnvironment().ok());
  EXPECT_TRUE(FaultRegistry::instance().armed());
  EXPECT_TRUE(FaultRegistry::shouldFail(FaultSite::SolverCall));
  FaultRegistry::instance().disarm();

  ASSERT_EQ(::setenv("RELAXC_FAULTS", "not-a-spec", 1), 0);
  EXPECT_FALSE(FaultRegistry::instance().armFromEnvironment().ok());
  EXPECT_FALSE(FaultRegistry::instance().armed());
  ASSERT_EQ(::unsetenv("RELAXC_FAULTS"), 0);
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(DeadlineTest, ArmingExpiryAndClamping) {
  Deadline Never = Deadline::never();
  EXPECT_FALSE(Never.armed());
  EXPECT_FALSE(Never.expired());
  EXPECT_EQ(Never.remainingMs(), INT64_MAX);
  EXPECT_EQ(Never.clampTimeoutMs(500), 500);
  EXPECT_EQ(Never.clampTimeoutMs(-1), -1);

  Deadline Now = Deadline::inMs(0);
  EXPECT_TRUE(Now.armed());
  EXPECT_TRUE(Now.expired());
  EXPECT_EQ(Now.remainingMs(), 0);
  EXPECT_EQ(Now.clampTimeoutMs(-1), 0);

  Deadline Soon = Deadline::inMs(60'000);
  EXPECT_TRUE(Soon.armed());
  EXPECT_FALSE(Soon.expired());
  EXPECT_GT(Soon.remainingMs(), 0);
  EXPECT_LE(Soon.clampTimeoutMs(-1), 60'000);
  EXPECT_EQ(Soon.clampTimeoutMs(10), 10) << "a tighter cap wins";

  // earliest(): an unarmed side always loses.
  EXPECT_TRUE(Deadline::earliest(Never, Now).expired());
  EXPECT_TRUE(Deadline::earliest(Now, Never).expired());
  EXPECT_FALSE(Deadline::earliest(Never, Soon).expired());
  EXPECT_TRUE(Deadline::earliest(Now, Soon).expired());
}

TEST(DeadlineTest, ExpiredDeadlineSettlesBoundedQueryAsDeadline) {
  AstContext Ctx;
  const BoolExpr *F = Ctx.gt(Ctx.var("x"), Ctx.intLit(4));

  BoundedSolver S;
  S.setDeadline(Deadline::inMs(0));
  auto R = S.checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unknown);
  EXPECT_TRUE(S.lastQueryDeadlined());

  // With time on the clock the verdict is the normal one.
  S.setDeadline(Deadline::never());
  auto R2 = S.checkSat({F});
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(*R2, SatResult::Sat);
  EXPECT_FALSE(S.lastQueryDeadlined());
}

TEST(DeadlineTest, PollCadenceCoversPropagationSkips) {
  // The deadline poll charges a *work* counter (candidates + values
  // skipped by propagation), not a candidate counter. Build a query on
  // [-30, 30] whose search work is dominated by propagation skips:
  // under order x, y, w, z, the partially-false `x+y+z >= -25` learns
  // {y, z} nogoods that forbid most of z's domain for the whole y trail,
  // while the always-false `x+w+z >= 400` keeps w in z's exhaust cause —
  // so every w value rescans z, skipping the forbidden bulk uncounted.
  // Forcing the poll site, the search must observe the expiry within one
  // poll window (4096 work units) even though far fewer candidates were
  // attempted; a candidate-counted poll would run the skip-heavy
  // subtrees far past that point first.
  AstContext Ctx;
  const Expr *X = Ctx.var("x"), *Y = Ctx.var("y"), *W = Ctx.var("w"),
             *Z = Ctx.var("z");
  std::vector<const BoolExpr *> Q = {
      Ctx.ge(Ctx.add(X, Y), Ctx.intLit(-100)),            // true: places x, y
      Ctx.ge(Ctx.add(Y, W), Ctx.intLit(-100)),            // true: places w
      Ctx.ge(Ctx.add(Ctx.add(X, Y), Z), Ctx.intLit(-25)), // partially false
      Ctx.ge(Ctx.add(Ctx.add(X, W), Z), Ctx.intLit(400)), // always false
  };

  BoundedSolverOptions Opts;
  Opts.IntLo = -30;
  Opts.IntHi = 30;

  {
    ScopedFaults F("deadline-poll=1");
    BoundedSolver S(Opts);
    auto R = S.checkSat(Q);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(*R, SatResult::Unknown);
    EXPECT_TRUE(S.lastQueryDeadlined());
    EXPECT_LT(S.candidatesEvaluated(), 4096u)
        << "the poll fired late: propagation skips were not charged";
  }

  // Fault-free control: the same query exhausts, and the skips the poll
  // charged really happened.
  BoundedSolver S(Opts);
  auto R = S.checkSat(Q);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unsat);
  EXPECT_FALSE(S.lastQueryDeadlined());
  EXPECT_GT(S.searchStats().UnitPropagations, 0u);
}

TEST(DeadlineTest, DeadlineVerdictsAreNeverCached) {
  AstContext Ctx;
  const BoolExpr *F = Ctx.gt(Ctx.var("x"), Ctx.intLit(4));

  BoundedSolver Inner;
  CachingSolver Cached(Inner);
  Cached.setDeadline(Deadline::inMs(0));
  auto R = Cached.checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unknown);
  EXPECT_TRUE(Cached.lastQueryDeadlined());

  // The same query with time left must recompute, not replay "unknown".
  Cached.setDeadline(Deadline::never());
  auto R2 = Cached.checkSat({F});
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(*R2, SatResult::Sat)
      << "an expired-deadline Unknown leaked into the result cache";
}

TEST(DeadlineTest, PortfolioSettlesExpiredQueriesWithoutRunningTiers) {
  AstContext Ctx;
  PortfolioOptions PO;
  PO.Tiers = {TierKind::Simplify, TierKind::Bounded};
  PortfolioSolver P(Ctx, PO);
  P.setDeadline(Deadline::inMs(0));

  const BoolExpr *F = Ctx.gt(Ctx.var("x"), Ctx.intLit(4));
  auto R = P.checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unknown);
  EXPECT_TRUE(P.lastQueryDeadlined());
  EXPECT_STREQ(P.settledBy(), "deadline");
  EXPECT_NE(P.giveUpTrail().find("deadline"), std::string::npos);

  P.setDeadline(Deadline::never());
  auto R2 = P.checkSat({F});
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(*R2, SatResult::Sat);
  EXPECT_FALSE(P.lastQueryDeadlined());
}

TEST(DeadlineTest, SchedulerSettlesExpiredRunAsDeadlineGaveUps) {
  // A whole verification run under an already-expired global deadline:
  // every obligation must settle (complete report, no hang) as an
  // Unknown whose detail names the deadline. swish's two passes share
  // obligations, and deadline gave-ups are never cached, so no duplicate
  // may be served from the shared cache — on every discharge path: Jobs 1
  // and 4, single-backend and portfolio mode.
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  relax::test::ParsedProgram P = relax::test::parseProgram(Source);
  ASSERT_TRUE(P.ok()) << P.diagnostics();

  auto Run = [&](bool Portfolio, unsigned Jobs, Deadline D,
                 DischargeStats &Stats) {
    BoundedSolver Fallback;
    DiagnosticEngine Diags;
    Verifier V(*P.Ctx, *P.Prog, Fallback, Diags);
    Verifier::Options VO;
    VO.Jobs = Jobs;
    if (Portfolio) {
      PortfolioOptions PO;
      PO.Tiers = {TierKind::Simplify, TierKind::Bounded};
      VO.Portfolio = PO;
    } else {
      VO.SmtFactory = [] { return std::make_unique<BoundedSolver>(); };
    }
    VO.GlobalDeadline = D;
    VO.StatsOut = &Stats;
    return V.run(VO);
  };

  // The control: with time left, the shared obligations do hit.
  DischargeStats Warm;
  Run(/*Portfolio=*/true, 1, Deadline(), Warm);
  ASSERT_GT(Warm.SharedCacheHits, 0u) << "swish's passes share no obligation";

  for (bool Portfolio : {false, true})
    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(Portfolio ? "portfolio" : "single-backend") +
                   " Jobs=" + std::to_string(Jobs));
      DischargeStats Stats;
      VerifyReport Report = Run(Portfolio, Jobs, Deadline::inMs(0), Stats);
      ASSERT_GT(Report.totalVCs(), 0u);
      EXPECT_FALSE(Report.verified());
      for (const JudgmentReport *J : {&Report.Original, &Report.Relaxed})
        for (const VCOutcome &O : J->Outcomes) {
          EXPECT_EQ(O.Status, VCStatus::Unknown) << O.Detail;
          EXPECT_EQ(O.Detail, "gave up: deadline expired");
        }
      EXPECT_EQ(Stats.SharedCacheHits, 0u);
    }
}

//===----------------------------------------------------------------------===//
// Frame I/O under faults and slow peers
//===----------------------------------------------------------------------===//

struct PipePair {
  int R = -1, W = -1;
  PipePair() {
    int Fds[2];
    EXPECT_EQ(::pipe(Fds), 0);
    R = Fds[0];
    W = Fds[1];
  }
  ~PipePair() {
    if (R >= 0)
      ::close(R);
    if (W >= 0)
      ::close(W);
  }
};

TEST(FrameFaults, InjectedFrameFaultsAreDiagnosed) {
  PipePair P;
  {
    ScopedFaults F("frame-write=1");
    ASSERT_TRUE(F.status().ok());
    Status S = writeFrame(P.W, "payload");
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("injected frame-write fault"),
              std::string::npos);
  }
  // Disarmed again: the same write goes through and an injected read
  // fault surfaces as a frame error, leaving the data unread.
  ASSERT_TRUE(writeFrame(P.W, "payload").ok());
  {
    ScopedFaults F("frame-read=1");
    ASSERT_TRUE(F.status().ok());
    FrameRead R = readFrame(P.R, 1000);
    ASSERT_EQ(R.K, FrameRead::Kind::Error);
    EXPECT_NE(R.Message.find("injected frame-read fault"), std::string::npos);
  }
  FrameRead R = readFrame(P.R, 1000);
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.Payload, "payload");
}

TEST(FrameFaults, TricklingPeerCannotExtendATimedRead) {
  // A peer dribbling one byte per poll interval used to reset the
  // timeout every iteration; the deadline is now computed once for the
  // whole read. 100 ms budget, bytes every 40 ms: must fail fast.
  PipePair P;
  std::thread Trickler([&] {
    const char Header[8] = {'R', 'L', 'X', 'F', 99, 0, 0, 0};
    for (int I = 0; I != 8; ++I) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      if (::write(P.W, Header + I, 1) != 1)
        break;
    }
  });
  auto Start = std::chrono::steady_clock::now();
  FrameRead F = readFrame(P.R, 100);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  Trickler.join();
  ASSERT_EQ(F.K, FrameRead::Kind::Error);
  EXPECT_NE(F.Message.find("timed out"), std::string::npos) << F.Message;
  EXPECT_LT(Ms, 2000) << "trickled bytes extended the read deadline";
}

TEST(FrameFaults, HugeDeadlineRemainderClampsIntoPollDomain) {
  // Regression pin: the frame reader used to static_cast the deadline's
  // remainingMs() straight to int for poll(2); a remainder past the int
  // domain (~95 years here, or an unarmed deadline's INT64_MAX) wrapped
  // to an arbitrary value — negative (accidental infinite poll) or tiny
  // (spurious instant timeout), depending on the low bits.
  EXPECT_EQ(framePollTimeoutMs(Deadline::inMs(3'000'000'000'000)), INT32_MAX);
  EXPECT_EQ(framePollTimeoutMs(Deadline::never()), -1)
      << "an unarmed deadline still means 'block indefinitely'";
  int Small = framePollTimeoutMs(Deadline::inMs(50));
  EXPECT_GE(Small, 0);
  EXPECT_LE(Small, 50);
}

TEST(FrameFaults, FrameReadsCompleteUnderAHugeDeadline) {
  // Behavioral side of the same pin: with a deadline far beyond poll's
  // int domain, a ready frame and a clean peer EOF must both surface
  // immediately instead of inheriting a wrapped timeout.
  Deadline Huge = Deadline::inMs(3'000'000'000'000);
  PipePair P;
  ASSERT_TRUE(writeFrame(P.W, "huge-deadline payload").ok());
  FrameRead F = readFrame(P.R, Huge);
  ASSERT_TRUE(F.ok()) << F.Message;
  EXPECT_EQ(F.Payload, "huge-deadline payload");
  ::close(P.W);
  P.W = -1;
  FrameRead E = readFrame(P.R, Huge);
  EXPECT_TRUE(E.eof()) << E.Message;
}

//===----------------------------------------------------------------------===//
// Child reaping under signal storms (the waitpid EINTR regression)
//===----------------------------------------------------------------------===//

/// Arms a ~5 ms SIGALRM cadence with a no-op handler installed WITHOUT
/// SA_RESTART, so blocking syscalls in this process keep taking EINTR
/// until the object goes out of scope.
struct SignalStorm {
  struct sigaction OldAction {};
  itimerval OldTimer{};
  SignalStorm() {
    struct sigaction SA {};
    SA.sa_handler = +[](int) {};
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = 0; // deliberately no SA_RESTART
    EXPECT_EQ(::sigaction(SIGALRM, &SA, &OldAction), 0);
    itimerval Storm{};
    Storm.it_interval.tv_usec = 5'000;
    Storm.it_value.tv_usec = 5'000;
    EXPECT_EQ(::setitimer(ITIMER_REAL, &Storm, &OldTimer), 0);
  }
  ~SignalStorm() {
    ::setitimer(ITIMER_REAL, &OldTimer, nullptr);
    ::sigaction(SIGALRM, &OldAction, nullptr);
  }
};

TEST(SubprocessReap, WaitForExitSurvivesASignalStorm) {
  // waitpid without the EINTR retry returned -1 under any mid-wait
  // signal, making a healthy child's exit read as abnormal termination
  // — which the pool health machine books as a worker death.
  Subprocess P;
  ASSERT_TRUE(P.spawn("/bin/sh", {"-c", "sleep 0.2; exit 7"}).ok());
  SignalStorm Storm;
  EXPECT_EQ(P.waitForExit(), 7)
      << "an EINTR during the reap was misread as abnormal termination";
}

TEST(SubprocessReap, TerminateReapsUnderASignalStorm) {
  Subprocess P;
  ASSERT_TRUE(P.spawn("/bin/sh", {"-c", "sleep 30"}).ok());
  SignalStorm Storm;
  P.terminate();
  EXPECT_FALSE(P.running());
  // The kill must also have been *reaped*: an interrupted waitpid used
  // to abandon the corpse as a zombie. WNOHANG never blocks, so the
  // storm cannot perturb this probe.
  errno = 0;
  int St = 0;
  pid_t Z = ::waitpid(-1, &St, WNOHANG);
  EXPECT_TRUE(Z == 0 || (Z < 0 && errno == ECHILD))
      << "terminate() left a zombie (reaped pid " << Z << ")";
}

//===----------------------------------------------------------------------===//
// Pool health: respawn, retry, quarantine, degradation
//===----------------------------------------------------------------------===//

/// A pool tuned for chaos tests: no backoff sleeps, millisecond
/// quarantines, and optional worker-side fault arming via --faults=.
std::unique_ptr<ShardPool> chaosPool(unsigned Shards,
                                     const std::string &WorkerFaults = "") {
  ShardPoolOptions O;
  O.Shards = Shards;
  O.WorkerExe = relax::test::driverPath();
  O.RoundTripTimeoutMs = 60'000;
  O.RespawnBackoffBaseMs = 0;
  O.QuarantineBaseMs = 1;
  O.QuarantineMaxMs = 2;
  if (!WorkerFaults.empty())
    O.WorkerArgs = {"--discharge-worker", "--faults=" + WorkerFaults};
  auto R = ShardPool::create(std::move(O));
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.message());
  return R.ok() ? std::move(*R) : nullptr;
}

ShardRequest simpleRequest() {
  ShardRequest R;
  R.Pipeline = "bounded";
  R.Vars = {{"x", VarKind::Int}};
  R.Formulas = {"x > 4"};
  return R;
}

TEST(PoolHealth, KillBetweenRequestsRespawnsOnceWithIdenticalVerdict) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  auto Pool = chaosPool(1);
  ASSERT_NE(Pool, nullptr);
  ShardRequest R = simpleRequest();

  auto A = Pool->discharge(R);
  ASSERT_TRUE(A.ok()) << A.message();
  EXPECT_EQ(A->Verdict, SatResult::Sat);

  // SIGKILL the only worker between requests: the next borrower finds
  // the corpse, respawns within budget, and answers identically.
  Pool->terminateWorker(0);
  auto B = Pool->discharge(R);
  ASSERT_TRUE(B.ok()) << B.message();
  EXPECT_EQ(B->Verdict, A->Verdict);

  ShardPool::Stats S = Pool->stats();
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.Attempts, 2u) << "a pre-borrow corpse costs no retry";
  EXPECT_EQ(S.Respawns, 1u);
  EXPECT_EQ(S.Failures, 0u);
  ASSERT_EQ(S.PerWorker.size(), 1u);
  EXPECT_EQ(S.PerWorker[0], 2u);
  ASSERT_EQ(S.PerWorkerHealth.size(), 1u);
  EXPECT_EQ(S.PerWorkerHealth[0], ShardPool::WorkerHealth::Healthy);
  EXPECT_FALSE(Pool->degraded());
}

TEST(PoolHealth, FailedRoundTripGetsExactlyOneSoundRetry) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Every worker dies instead of answering: the first discharge must
  // make exactly two attempts (borrow + one retry) and then report a
  // diagnosed error — never guess a verdict, never retry forever.
  auto Pool = chaosPool(1, "seed=1,worker-exit=1");
  ASSERT_NE(Pool, nullptr);

  auto R = Pool->discharge(simpleRequest());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("shard discharge failed"), std::string::npos);

  ShardPool::Stats S = Pool->stats();
  EXPECT_EQ(S.Requests, 1u);
  EXPECT_EQ(S.Attempts, 2u) << "the sound retry is single";
  EXPECT_EQ(S.Failures, 2u);
  EXPECT_EQ(S.Respawns, 1u);
}

TEST(PoolHealth, RespawnBudgetExhaustionDegradesThePool) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  auto Pool = chaosPool(1, "seed=1,worker-exit=1");
  ASSERT_NE(Pool, nullptr);

  // Keep asking: respawns burn the budget (3), the breaker quarantines
  // the slot in between, and the slot finally goes Dead. The pool then
  // fails fast and reports itself degraded — stickily.
  bool SawAllDead = false;
  for (int I = 0; I != 6 && !SawAllDead; ++I) {
    auto R = Pool->discharge(simpleRequest());
    ASSERT_FALSE(R.ok());
    SawAllDead =
        R.message().find("every worker is dead") != std::string::npos;
  }
  EXPECT_TRUE(SawAllDead);
  EXPECT_TRUE(Pool->degraded());

  ShardPool::Stats S = Pool->stats();
  EXPECT_TRUE(S.Degraded);
  EXPECT_LE(S.Respawns, 3u) << "respawns must respect the per-slot budget";
  EXPECT_GT(S.Quarantines, 0u) << "the circuit breaker never tripped";
  ASSERT_EQ(S.PerWorkerHealth.size(), 1u);
  EXPECT_EQ(S.PerWorkerHealth[0], ShardPool::WorkerHealth::Dead);

  // Degradation is sticky: later requests fail fast with the same
  // diagnosis instead of hammering respawns.
  auto After = Pool->discharge(simpleRequest());
  ASSERT_FALSE(After.ok());
  EXPECT_NE(After.message().find("every worker is dead"), std::string::npos);
}

TEST(PoolHealth, SpawnFaultsAreToleratedAtCreateAndDiagnosedAfter) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Parent-side spawn faults: creation must still succeed (degrade, not
  // abort), and discharge must fail with a diagnosis once the respawn
  // budget is gone — never crash or hang.
  ScopedFaults F("seed=2,worker-spawn=1");
  ASSERT_TRUE(F.status().ok());
  auto Pool = chaosPool(1);
  ASSERT_NE(Pool, nullptr) << "a failed initial spawn must not abort create";

  bool SawAllDead = false;
  for (int I = 0; I != 6 && !SawAllDead; ++I) {
    auto R = Pool->discharge(simpleRequest());
    ASSERT_FALSE(R.ok());
    SawAllDead =
        R.message().find("every worker is dead") != std::string::npos;
  }
  EXPECT_TRUE(SawAllDead);
  EXPECT_TRUE(Pool->degraded());
}

//===----------------------------------------------------------------------===//
// Chaos end-to-end: reports are bit-identical to the fault-free run
//===----------------------------------------------------------------------===//

const char *CaseStudies[] = {"swish.rlx",     "water.rlx",
                             "lu.rlx",        "task_skip.rlx",
                             "sampling.rlx",  "memoize.rlx",
                             "water_modular.rlx", "shared_callee.rlx"};

/// The determinism-pinned outcome fields (Status, Detail, identity);
/// SettledBy/Trail/Millis are schedule- and recovery-dependent by design.
void expectIdenticalReports(const VerifyReport &A, const VerifyReport &B,
                            const std::string &Name) {
  auto Compare = [&](const JudgmentReport &X, const JudgmentReport &Y,
                     const char *Pass) {
    ASSERT_EQ(X.Outcomes.size(), Y.Outcomes.size()) << Name << " " << Pass;
    for (size_t I = 0; I != X.Outcomes.size(); ++I) {
      EXPECT_EQ(X.Outcomes[I].Condition.Id, Y.Outcomes[I].Condition.Id)
          << Name << " " << Pass << " VC #" << I;
      EXPECT_EQ(X.Outcomes[I].Status, Y.Outcomes[I].Status)
          << Name << " " << Pass << " VC #" << I << " ("
          << X.Outcomes[I].Condition.Rule << "): " << X.Outcomes[I].Detail
          << " vs " << Y.Outcomes[I].Detail;
      EXPECT_EQ(X.Outcomes[I].Detail, Y.Outcomes[I].Detail)
          << Name << " " << Pass << " VC #" << I;
    }
  };
  Compare(A.Original, B.Original, "|-o");
  Compare(A.Relaxed, B.Relaxed, "|-r");
}

/// Z3-free chaos configuration: workers run a final `bounded` tier and
/// the in-process control runs the same tier, so verdicts (and Details —
/// bounded witnesses) are fully deterministic in every build.
PortfolioOptions chaosPipeline(ShardPool *Pool) {
  PortfolioOptions PO;
  PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Shard};
  PO.Bounded.MaxCandidates = 50'000;
  PO.Bounded.MaxQuantSteps = 20'000;
  PO.Pool = Pool;
  PO.ShardWorkerPipeline = "bounded";
  return PO;
}

VerifyReport runChaosVerify(relax::test::ParsedProgram &P, ShardPool *Pool,
                            unsigned Jobs = 1) {
  BoundedSolver Dummy;
  DiagnosticEngine Diags;
  Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
  Verifier::Options VO;
  VO.Portfolio = chaosPipeline(Pool);
  VO.Jobs = Jobs;
  return V.run(VO);
}

void expectCaseStudiesSurviveChaos(ShardPool *Pool, const char *Tag) {
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    relax::test::ParsedProgram Base = relax::test::parseProgram(Source);
    ASSERT_TRUE(Base.ok()) << Name << ": " << Base.diagnostics();
    relax::test::ParsedProgram Chaos = relax::test::parseProgram(Source);
    ASSERT_TRUE(Chaos.ok());

    VerifyReport FaultFree = runChaosVerify(Base, nullptr);
    VerifyReport Faulted = runChaosVerify(Chaos, Pool);
    expectIdenticalReports(FaultFree, Faulted,
                           std::string(Name) + " [" + Tag + "]");
  }
}

TEST(ChaosDischarge, WorkerKillsIncludingMidFrameGarbage) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Workers die on ~30% of requests — alternating (by draw parity)
  // between vanishing silently and emitting garbage partial header
  // bytes first. Retries, respawns, quarantine, and (if the budget
  // drains) degradation must all be invisible in the report.
  auto Pool = chaosPool(2, "seed=7,worker-exit=0.3");
  ASSERT_NE(Pool, nullptr);
  expectCaseStudiesSurviveChaos(Pool.get(), "worker kills");
}

TEST(ChaosDischarge, ParentSideFrameFaults) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  auto Pool = chaosPool(2);
  ASSERT_NE(Pool, nullptr);
  // Armed in *this* process only: the pool's reads and writes fail at
  // ~20% each; the workers themselves are healthy.
  ScopedFaults F("seed=11,frame-read=0.2,frame-write=0.2");
  ASSERT_TRUE(F.status().ok());
  expectCaseStudiesSurviveChaos(Pool.get(), "frame faults");
}

TEST(ChaosDischarge, FullPoolDeathFallsBackInProcess) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Every worker dies on every request and every respawn fails: the
  // pool degrades completely, and the portfolio's in-process tail must
  // answer everything — reports identical, degradation recorded.
  auto Pool = chaosPool(1, "seed=3,worker-exit=1");
  ASSERT_NE(Pool, nullptr);
  ScopedFaults F("seed=3,worker-spawn=1");
  ASSERT_TRUE(F.status().ok());
  expectCaseStudiesSurviveChaos(Pool.get(), "pool death");
  EXPECT_TRUE(Pool->degraded());
  ShardPool::Stats S = Pool->stats();
  EXPECT_TRUE(S.Degraded);
  EXPECT_GT(S.DegradedFallbacks, 0u)
      << "the portfolio never recorded answering from the fallback tail";
}

TEST(ChaosDischarge, DelayedResponses) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Half the responses arrive 5 ms late: no timeout fires (the round
  // trip budget is generous) and nothing changes in the report.
  auto Pool = chaosPool(2, "seed=13,response-delay=0.5,delay-ms=5");
  ASSERT_NE(Pool, nullptr);
  expectCaseStudiesSurviveChaos(Pool.get(), "delays");
}

TEST(ChaosDischarge, GeneratedProgramsSurviveCombinedChaos) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // 100 generated programs through a pool with worker kills AND
  // parent-side frame faults at once, sequential and work-stealing.
  auto Pool = chaosPool(2, "seed=17,worker-exit=0.2");
  ASSERT_NE(Pool, nullptr);
  ScopedFaults F("seed=19,frame-write=0.1,frame-read=0.1");
  ASSERT_TRUE(F.status().ok());

  relax::test::ProgramGen Gen(20260808);
  for (int Iter = 0; Iter != 100; ++Iter) {
    std::string Source = Gen.gen();
    relax::test::ParsedProgram Base = relax::test::parseProgram(Source);
    ASSERT_TRUE(Base.ok()) << "seed 20260808 #" << Iter << "\n" << Source;
    relax::test::ParsedProgram Chaos = relax::test::parseProgram(Source);
    ASSERT_TRUE(Chaos.ok());

    VerifyReport FaultFree = runChaosVerify(Base, nullptr);
    unsigned Jobs = Iter % 4 == 3 ? 4 : 1;
    VerifyReport Faulted = runChaosVerify(Chaos, Pool.get(), Jobs);
    expectIdenticalReports(FaultFree, Faulted,
                           "generated #" + std::to_string(Iter) +
                               " jobs=" + std::to_string(Jobs));
  }
}

} // namespace
