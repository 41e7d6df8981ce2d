//===- perfbench/driver/SimWorkloads.cpp - eval-sweep and offchip-serial --===//
///
/// The two simulation workloads. Both repeat a fixed pass of simulations
/// until the run's measuring time is used up, check every simulation's
/// statistics against the expected values, and report medians over passes.
///
///   eval-sweep      the Figure 14 slice of the evaluation: 13 apps x
///                   {Original, Optimized}, page interleaving, private L2,
///                   M1 mapping, each one runVariant call submitted through
///                   ExperimentRunner at jobs = host threads.
///   offchip-serial  the fig25 co-run of swim (scale 0.6) and mgrid under
///                   cache-line interleaving, a 64-byte record sweep parsed
///                   from program text, and swim Original/Optimized under MSI
///                   coherence, each simulated on one thread. Every host
///                   thread runs its own copy of the four, one after
///                   another, with no harness: on a shared host the run
///                   medians spread 9-20% with a single busy core and
///                   4-12% with all cores busy (as in eval-sweep).
///
/// A traced run alternates untraced and span-traced passes for the tracing
/// overhead, then runs one pass with spans and the simulator's phase timers,
/// from which the per-layer figures come, and replays that pass's access
/// streams with no machine attached.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "affine/ProgramText.h"
#include "harness/Runner.h"
#include "sim/AddressMap.h"
#include "sim/ThreadStream.h"
#include "support/Error.h"
#include "support/Format.h"
#include "vm/VirtualMemory.h"
#include "workloads/AppModel.h"

#include <algorithm>
#include <memory>
#include <thread>

using namespace offchip;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

using PlanList = std::shared_ptr<const std::vector<LayoutPlan>>;

/// One simulation of a pass. Several apps co-run on every node.
struct SimSpec {
  std::string Label;
  std::vector<std::shared_ptr<const AppModel>> Apps;
  RunVariant Variant = RunVariant::Original;
  MachineConfig Config;
  const ClusterMapping *Mapping = nullptr;
  /// Layout plans made at set-up; null when every run plans for itself.
  PlanList Plans;
};

/// The outcome and host timing of one executed SimSpec.
struct SimRun {
  SimResult R;
  MachineConfig RunConfig; // Config with the variant's page policy
  PlanList Plans;          // null after a runVariant call
  double JobS = 0.0, PlanS = 0.0, SimS = 0.0;
  Clock::time_point Start, End;
  std::thread::id Worker;
};

struct Pass {
  double WallS = 0.0;
  Clock::time_point Start, End;
  std::vector<SimRun> Runs;
};

/// The fixture a workload's setup builds: apps, configs, mappings, specs.
struct Fixture {
  std::vector<std::unique_ptr<ClusterMapping>> Mappings;
  std::vector<SimSpec> Specs;
  double BuildS = 0.0; // buildApp + parseProgramText seconds
  double PlanS = 0.0;  // planForVariant seconds of set-up plans
};

/// \p S's machine as its variant runs it (runVariant's adjustment), for the
/// traced pass, which times planning and simulation apart.
MachineConfig variantConfig(const SimSpec &S) {
  MachineConfig C = S.Config;
  if (S.Variant == RunVariant::Optimized &&
      C.Granularity == InterleaveGranularity::Page)
    C.PagePolicy = PageAllocPolicy::CompilerGuided;
  return C;
}

/// Plans every app of \p S, adding the seconds spent to \p PlanS.
PlanList planAll(const SimSpec &S, const MachineConfig &C, SpanLog &Spans,
                 std::uint64_t Parent, double &PlanS) {
  auto Plans = std::make_shared<std::vector<LayoutPlan>>();
  for (const auto &App : S.Apps) {
    SpanLog::Scope Plan(Spans, "planForVariant", "core", Parent);
    Plans->push_back(planForVariant(*App, C, *S.Mapping, S.Variant));
    PlanS += Plan.end();
  }
  return Plans;
}

SimRun execute(const SimSpec &S, SpanLog &Spans, std::uint64_t Parent,
               bool PhaseTimes) {
  SimRun Out;
  Out.Start = Clock::now();
  Out.Worker = std::this_thread::get_id();
  SpanLog::Scope Job(Spans, "job", "harness", Parent);
  Out.RunConfig = variantConfig(S);
  Out.RunConfig.CollectPhaseTimes = PhaseTimes;
  Out.Plans = S.Plans ? S.Plans
                      : planAll(S, Out.RunConfig, Spans, Job.id(), Out.PlanS);
  const std::vector<LayoutPlan> &Plans = *Out.Plans;
  if (S.Apps.size() == 1) {
    SpanLog::Scope Sim(Spans, "runSingle", "sim", Job.id());
    Out.R = runSingle(S.Apps[0]->Program, Plans[0], Out.RunConfig,
                      *S.Mapping, S.Apps[0]->ComputeGapCycles);
    Out.SimS = Sim.end();
  } else {
    std::vector<unsigned> AllNodes;
    for (unsigned T = 0; T < Out.RunConfig.numNodes(); ++T)
      AllNodes.push_back(S.Mapping->threadToNode(T));
    std::vector<AppInstance> Instances;
    for (std::size_t I = 0; I < S.Apps.size(); ++I) {
      AppInstance Inst;
      Inst.Program = &S.Apps[I]->Program;
      Inst.Plan = &Plans[I];
      Inst.Nodes = AllNodes;
      Inst.ComputeGapCycles = S.Apps[I]->ComputeGapCycles;
      Instances.push_back(std::move(Inst));
    }
    SpanLog::Scope Sim(Spans, "runSimulation", "sim", Job.id());
    Out.R = runSimulation(Instances, Out.RunConfig, *S.Mapping);
    Out.SimS = Sim.end();
  }
  Out.JobS = Job.end();
  Out.End = Clock::now();
  return Out;
}

/// Runs \p S as fig14 does: one runVariant call, planning included.
SimRun executeVariant(const SimSpec &S) {
  SimRun Out;
  Out.Start = Clock::now();
  Out.Worker = std::this_thread::get_id();
  Out.R = runVariant(*S.Apps[0], S.Config, *S.Mapping, S.Variant);
  Out.End = Clock::now();
  Out.JobS = Out.SimS = secondsBetween(Out.Start, Out.End);
  return Out;
}

/// Runs \p S split into timed plan and simulate calls when \p Split or when
/// its plans were made at set-up, else through runVariant.
SimRun executeSpec(const SimSpec &S, bool Split, SpanLog &Spans,
                   std::uint64_t Parent, bool PhaseTimes) {
  if (Split || S.Plans)
    return execute(S, Spans, Parent, PhaseTimes);
  return executeVariant(S);
}

/// Runs every spec once through \p Runner when given. Otherwise \p Copies
/// threads each run every spec one after another (copy C starting at spec
/// C), with no harness involved. Run R of the pass is spec R % Specs.size().
Pass runPass(const std::vector<SimSpec> &Specs, ExperimentRunner *Runner,
             unsigned Copies, bool Split, SpanLog &Spans, bool PhaseTimes) {
  Pass P;
  std::size_t N = Specs.size();
  P.Runs.resize(N * Copies);
  P.Start = Clock::now();
  {
    SpanLog::Scope Root(Spans, Runner ? "sweep" : "round", "perfbench");
    if (Runner) {
      std::vector<SimFuture> Futures;
      for (std::size_t I = 0; I < Specs.size(); ++I) {
        SpanLog::Scope Submit(Spans, "ExperimentRunner::submit", "harness",
                              Root.id());
        SimRun *Slot = &P.Runs[I];
        const SimSpec *Spec = &Specs[I];
        std::uint64_t Parent = Root.id();
        Futures.push_back(Runner->submit([Slot, Spec, Split, &Spans, Parent,
                                          PhaseTimes] {
          *Slot = executeSpec(*Spec, Split, Spans, Parent, PhaseTimes);
          return SimResult();
        }));
      }
      for (SimFuture &F : Futures)
        F.get();
    } else {
      std::vector<std::thread> Threads;
      for (unsigned C = 0; C < Copies; ++C)
        Threads.emplace_back([&, C, Parent = Root.id()] {
          for (std::size_t K = 0; K < N; ++K) {
            std::size_t I = (C + K) % N;
            P.Runs[C * N + I] =
                executeSpec(Specs[I], Split, Spans, Parent, PhaseTimes);
          }
        });
      for (std::thread &T : Threads)
        T.join();
    }
  }
  P.End = Clock::now();
  P.WallS = secondsBetween(P.Start, P.End);
  return P;
}

/// Compares every run of \p P with its expected statistics and identities.
/// A run through runVariant keeps no plans; \p SpecPlans, one list per spec,
/// stand in for them.
void checkPass(const std::vector<SimSpec> &Specs, const Pass &P,
               const std::vector<PlanList> &SpecPlans, const BenchArgs &Args,
               ExpectedStats &Expected, Report &Rep) {
  for (std::size_t R = 0; R < P.Runs.size(); ++R) {
    const SimRun &Run = P.Runs[R];
    const SimSpec &Spec = Specs[R % Specs.size()];
    Rep.attempted();
    StatList Stats = simStats(Run.R);
    const PlanList &Plans =
        Run.Plans ? Run.Plans : SpecPlans[R % Specs.size()];
    for (const LayoutPlan &Plan : *Plans)
      Stats.push_back({"arrays_optimized_frac",
                       formatString("%.17g", Plan.arraysOptimizedFraction())});
    std::vector<std::string> Problems =
        Expected.check(Spec.Label, Stats, Args.Record);
    for (std::string &V : simInvariantViolations(Run.R))
      Problems.push_back(std::move(V));
    for (const std::string &V : Problems)
      std::fprintf(stderr, "%s: %s\n", Spec.Label.c_str(), V.c_str());
    if (!Problems.empty())
      Rep.fail(formatString("%s: %zu wrong statistics",
                            Spec.Label.c_str(), Problems.size()));
  }
}

using BuildFn = void (*)(Fixture &, SpanLog &, std::uint64_t);

/// Builds a fresh fixture into \p F; records its set-up seconds and the
/// app-build and planning seconds inside it.
void timedSetup(BuildFn Build, SpanLog &Spans, Fixture &F,
                std::vector<double> &SetupS, std::vector<double> &BuildS,
                std::vector<double> &PlanS) {
  F = Fixture(); // freeing the previous fixture is not set-up work
  SpanLog::Scope Root(Spans, "setup", "perfbench");
  Build(F, Spans, Root.id());
  SetupS.push_back(Root.end());
  BuildS.push_back(F.BuildS);
  PlanS.push_back(F.PlanS);
}

std::shared_ptr<const AppModel> timedBuildApp(const std::string &Name,
                                              double Scale, SpanLog &Spans,
                                              std::uint64_t Parent,
                                              double &BuildS) {
  SpanLog::Scope S(Spans, "buildApp", "workloads", Parent);
  auto App = std::make_shared<const AppModel>(buildApp(Name, Scale));
  BuildS += S.end();
  return App;
}

const ClusterMapping *timedMapping(const MachineConfig &C, Fixture &F,
                                   SpanLog &Spans, std::uint64_t Parent) {
  SpanLog::Scope S(Spans, "makeM1Mapping", "harness", Parent);
  F.Mappings.push_back(std::make_unique<ClusterMapping>(makeM1Mapping(C)));
  return F.Mappings.back().get();
}

/// The Figure 14 machine: scaled Table 1, page interleaving, private L2.
MachineConfig pageConfig() {
  MachineConfig C = MachineConfig::scaledDefault();
  C.Granularity = InterleaveGranularity::Page;
  return C;
}

void buildEvalSweep(Fixture &F, SpanLog &Spans, std::uint64_t Parent) {
  MachineConfig C = pageConfig();
  const ClusterMapping *M1 = timedMapping(C, F, Spans, Parent);
  for (const std::string &Name : appNames()) {
    auto App = timedBuildApp(Name, 1.0, Spans, Parent, F.BuildS);
    for (RunVariant V : {RunVariant::Original, RunVariant::Optimized})
      F.Specs.push_back({"eval-sweep/" + Name +
                             (V == RunVariant::Original ? "/original"
                                                        : "/optimized"),
                         {App}, V, C, M1, nullptr});
  }
}

/// perf_hotpath's record sweep as program text: three arrays of 64-byte
/// records read, read and written in one pass, so nearly every access
/// opens a fresh line and the off-chip path dominates.
const char *RecordSweepText = R"(program recsweep
array recs_in dims 400000 elem 64
array recs_aux dims 400000 elem 64
array recs_out dims 400000 elem 64
nest sweep bounds 0:400000 parallel 0
  read  recs_in [ i0 ]
  read  recs_aux [ i0 ]
  write recs_out [ i0 ]
end
)";

void buildOffchipSerial(Fixture &F, SpanLog &Spans, std::uint64_t Parent) {
  MachineConfig Line = MachineConfig::scaledDefault();
  MachineConfig Page = pageConfig();
  MachineConfig Msi = pageConfig();
  Msi.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
  const ClusterMapping *MLine = timedMapping(Line, F, Spans, Parent);
  const ClusterMapping *MPage = timedMapping(Page, F, Spans, Parent);
  // fig25 scales the 2D apps of a two-app mix to 0.6; mgrid, a 3D grid,
  // keeps its full extent.
  auto SwimMix = timedBuildApp("swim", 0.6, Spans, Parent, F.BuildS);
  auto Mgrid = timedBuildApp("mgrid", 1.0, Spans, Parent, F.BuildS);
  auto Swim = timedBuildApp("swim", 1.0, Spans, Parent, F.BuildS);
  std::shared_ptr<const AppModel> Records;
  {
    SpanLog::Scope S(Spans, "parseProgramText", "workloads", Parent);
    std::string Err;
    std::optional<AffineProgram> P = parseProgramText(RecordSweepText, &Err);
    if (!P)
      reportFatalError(("record sweep program: " + Err).c_str());
    auto M = std::make_shared<AppModel>("recsweep");
    M->Program = std::move(*P);
    M->ComputeGapCycles = 4;
    M->MemDemandPerCore = 0.9;
    Records = std::move(M);
    F.BuildS += S.end();
  }
  F.Specs = {
      {"offchip-serial/fig25-swim+mgrid", {SwimMix, Mgrid},
       RunVariant::Original, Line, MLine, nullptr},
      {"offchip-serial/records", {Records}, RunVariant::Original, Page, MPage,
       nullptr},
      {"offchip-serial/swim-msi/original", {Swim}, RunVariant::Original, Msi,
       MPage, nullptr},
      {"offchip-serial/swim-msi/optimized", {Swim}, RunVariant::Optimized, Msi,
       MPage, nullptr},
  };
  // The runs here measure simulation alone: the layout plans are made once,
  // at set-up, and shared by every pass and copy.
  for (SimSpec &S : F.Specs)
    S.Plans = planAll(S, variantConfig(S), Spans, Parent, F.PlanS);
}

/// Drains every thread stream of \p Run with no machine attached;
/// \returns the number of accesses generated.
std::uint64_t replayStreams(const SimSpec &Spec, const SimRun &Run,
                            SpanLog &Spans, std::uint64_t Parent) {
  const MachineConfig &C = Run.RunConfig;
  VmConfig VC;
  VC.PageBytes = C.PageBytes;
  VC.NumMCs = C.NumMCs;
  VC.BytesPerMC = C.BytesPerMC;
  VirtualMemory VM(VC, C.PagePolicy);
  std::vector<std::unique_ptr<AddressMap>> Maps;
  {
    SpanLog::Scope S(Spans, "AddressMap", "sim", Parent);
    for (std::size_t I = 0; I < Spec.Apps.size(); ++I)
      Maps.push_back(std::make_unique<AddressMap>(Spec.Apps[I]->Program,
                                                  (*Run.Plans)[I], VM, C));
  }
  SpanLog::Scope S(Spans, "ThreadStream", "sim", Parent);
  std::uint64_t N = 0;
  unsigned Threads = C.numThreads();
  AccessRequest Req;
  for (const auto &Map : Maps)
    for (unsigned T = 0; T < Threads; ++T) {
      ThreadStream Stream(*Map, T, Threads);
      while (Stream.next(Req))
        ++N;
    }
  return N;
}

/// Host-time and simulated per-layer metrics of the traced pass.
void tracedLayers(const std::vector<SimSpec> &Specs, const Pass &Traced,
                  unsigned Jobs, SpanLog &Spans, Report &Rep,
                  LayerValues &L) {
  std::vector<double> JobS, SimS;
  double PlanS = 0.0, Stream = 0.0, Noc = 0.0, Dram = 0.0, OptFrac = 0.0;
  unsigned OptPlans = 0;
  std::uint64_t Accesses = 0;
  std::vector<const SimResult *> Results;
  Clock::time_point LastStart = Traced.Start;
  for (std::size_t R = 0; R < Traced.Runs.size(); ++R) {
    const SimRun &Run = Traced.Runs[R];
    const SimSpec &Spec = Specs[R % Specs.size()];
    JobS.push_back(Run.JobS);
    SimS.push_back(Run.SimS);
    PlanS += Run.PlanS;
    const PhaseTimes &Ph = Run.R.Phases;
    double Parts = Ph.StreamGenSeconds + Ph.NetworkSeconds + Ph.DramSeconds;
    // The simulator's phase timers must nest inside its own total, and that
    // total inside the benchmark's span around the call.
    if (!Ph.Enabled || Parts > Ph.TotalSeconds * 1.02 + 1e-3 ||
        Ph.TotalSeconds > Run.SimS * 1.02 + 1e-3)
      Rep.fail(formatString("%s: phase times %.4f s of %.4f s exceed the "
                            "%.4f s span",
                            Spec.Label.c_str(), Parts, Ph.TotalSeconds,
                            Run.SimS));
    Stream += Ph.StreamGenSeconds;
    Noc += Ph.NetworkSeconds;
    Dram += Ph.DramSeconds;
    Accesses += Run.R.TotalAccesses;
    Results.push_back(&Run.R);
    LastStart = std::max(LastStart, Run.Start);
    if (Spec.Variant == RunVariant::Optimized)
      for (const LayoutPlan &P : *Run.Plans) {
        OptFrac += P.arraysOptimizedFraction();
        ++OptPlans;
      }
  }
  // Idle time of each worker from the moment the last job starts until the
  // pass ends: the tail the slowest job sets.
  std::map<std::thread::id, Clock::time_point> LastEnd;
  for (const SimRun &Run : Traced.Runs)
    LastEnd[Run.Worker] = std::max(LastEnd[Run.Worker], Run.End);
  double TailIdle = static_cast<double>(Jobs - LastEnd.size()) *
                    secondsBetween(LastStart, Traced.End);
  for (const auto &[Worker, End] : LastEnd)
    TailIdle += secondsBetween(std::max(End, LastStart), Traced.End);

  double SimTotal = sum(SimS);
  L["harness.parallel_eff"] = sum(JobS) / (Jobs * Traced.WallS);
  L["harness.tail_idle_s"] = TailIdle;
  L["core.plan_s"] = PlanS;
  L["core.arrays_optimized_frac"] = OptPlans ? OptFrac / OptPlans : 0.0;
  L["sim.run_s_median"] = median(SimS);
  L["sim.run_s_max"] = *std::max_element(SimS.begin(), SimS.end());
  L["sim.host_ns_per_access"] = SimTotal / Accesses * 1e9;
  L["sim.stream_s"] = Stream;
  L["noc.send_s"] = Noc;
  L["dram.s"] = Dram;
  L["sim.unattributed_s"] = SimTotal - Stream - Noc - Dram;
  addSimulatedLayers(Results, L);
  Rep.line(formatString("trace: sim total %.3f s = stream %.3f + noc %.3f + "
                        "dram %.3f + unattributed %.3f",
                        SimTotal, Stream, Noc, Dram,
                        L["sim.unattributed_s"]));

  // Replay the first copy's simulations, one after another.
  SpanLog::Scope Root(Spans, "replay", "perfbench");
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    std::uint64_t N =
        replayStreams(Specs[I], Traced.Runs[I], Spans, Root.id());
    if (N != Traced.Runs[I].R.TotalAccesses)
      Rep.fail(formatString("%s: replayed %llu accesses, simulated %llu",
                            Specs[I].Label.c_str(),
                            static_cast<unsigned long long>(N),
                            static_cast<unsigned long long>(
                                Traced.Runs[I].R.TotalAccesses)));
  }
  L["sim.stream_replay_s"] = Root.end();
}

/// Shared driver of both simulation workloads.
/// \p Jobs > 0 submits each pass through an ExperimentRunner with that
/// many workers; 0 runs hostThreads() independent copies of the pass.
template <typename SavingsFn>
void runSimWorkload(const BenchArgs &Args, unsigned Jobs, BuildFn Build,
                    SavingsFn Savings, ExpectedStats &Expected,
                    SpanLog &Spans, Report &Rep, LayerValues &L) {
  // Set-ups run in batches: one before measuring and, in an untraced run,
  // one after every pass. offchip-serial's take microseconds, so a batch
  // repeats them for a while; spreading the batches over the run keeps
  // setup_s from being one moment of a noisy host. Only the first set-up
  // records spans, so a layer's self time covers one set-up however many
  // the time-boxed batches hold.
  Fixture F;
  SpanLog Off(false);
  std::vector<double> SetupS, BuildS, SetupPlanS;
  auto SetupBatch = [&](std::size_t MinRepeats, double Seconds) {
    Clock::time_point BatchStart = Clock::now();
    for (std::size_t N = 0;
         N < MinRepeats ||
         (N < 1000 && secondsBetween(BatchStart, Clock::now()) < Seconds);
         ++N)
      timedSetup(Build, SetupS.empty() ? Spans : Off, F, SetupS, BuildS,
                 SetupPlanS);
  };
  SetupBatch(SetupRepeats, 0.25);
  for (const SimSpec &S : F.Specs)
    if (std::vector<ConfigDiagnostic> D = S.Config.validate(); !D.empty()) {
      Rep.attempted();
      Rep.fail(S.Label + ": invalid config: " + renderDiagnostics(D));
      return;
    }
  // The plans each spec's optimized-array share is checked against when its
  // runs go through runVariant, made once, outside every timed interval.
  std::vector<PlanList> SpecPlans;
  for (const SimSpec &S : F.Specs) {
    double Unused = 0.0;
    SpecPlans.push_back(S.Plans ? S.Plans
                                : planAll(S, variantConfig(S), Off, 0, Unused));
  }

  std::unique_ptr<ExperimentRunner> Runner;
  if (Jobs > 0)
    Runner = std::make_unique<ExperimentRunner>(Jobs);
  unsigned Copies = Jobs > 0 ? 1 : hostThreads();
  unsigned Workers = Jobs > 0 ? Jobs : Copies;

  if (Args.Trace) {
    // Tracing overhead: untraced and span-traced passes alternate, at least
    // two of each, for the measuring time; the overhead compares their
    // medians. Every pass of a traced run times planning and simulation
    // apart, so the two sides differ only in whether spans are stored.
    std::vector<double> UntracedWalls, TracedWalls;
    Clock::time_point Start = Clock::now();
    do {
      Pass Untraced = runPass(F.Specs, Runner.get(), Copies, true, Off, false);
      checkPass(F.Specs, Untraced, SpecPlans, Args, Expected, Rep);
      UntracedWalls.push_back(Untraced.WallS);
      SpanLog Discarded(true);
      Pass Traced =
          runPass(F.Specs, Runner.get(), Copies, true, Discarded, false);
      checkPass(F.Specs, Traced, SpecPlans, Args, Expected, Rep);
      TracedWalls.push_back(Traced.WallS);
    } while (UntracedWalls.size() < 2 ||
             secondsBetween(Start, Clock::now()) < Args.Seconds);
    // The per-layer figures and the span file come from one more pass, which
    // also turns on the simulator's phase timers.
    Pass Traced = runPass(F.Specs, Runner.get(), Copies, true, Spans, true);
    checkPass(F.Specs, Traced, SpecPlans, Args, Expected, Rep);
    L["workloads.build_s"] = median(BuildS);
    L["trace.overhead_pct"] =
        (median(TracedWalls) / median(UntracedWalls) - 1.0) * 100.0;
    Rep.line(formatString("trace: %zu untraced and %zu span-traced passes, "
                          "median %.4f s and %.4f s",
                          UntracedWalls.size(), TracedWalls.size(),
                          median(UntracedWalls), median(TracedWalls)));
    tracedLayers(F.Specs, Traced, Workers, Spans, Rep, L);
    L["core.plan_s"] += median(SetupPlanS);
    return;
  }

  std::vector<Pass> Passes;
  Clock::time_point Start = Clock::now();
  do {
    Passes.push_back(
        runPass(F.Specs, Runner.get(), Copies, false, Spans, false));
    checkPass(F.Specs, Passes.back(), SpecPlans, Args, Expected, Rep);
    Rep.line(formatString("pass %zu: %.4f s", Passes.size(),
                          Passes.back().WallS));
    SetupBatch(1, 0.05);
  } while (secondsBetween(Start, Clock::now()) < Args.Seconds);

  std::vector<double> Walls, Macc, Rate;
  std::vector<std::vector<double>> JobMs(F.Specs.size());
  for (const Pass &P : Passes) {
    std::uint64_t Accesses = 0;
    double SimS = 0.0;
    for (std::size_t I = 0; I < P.Runs.size(); ++I) {
      Accesses += P.Runs[I].R.TotalAccesses;
      SimS += P.Runs[I].SimS;
      JobMs[I % F.Specs.size()].push_back(P.Runs[I].JobS * 1e3);
    }
    Walls.push_back(P.WallS);
    Macc.push_back(static_cast<double>(Accesses) / SimS / 1e6);
    Rate.push_back(static_cast<double>(P.Runs.size()) / P.WallS);
  }
  std::string N = formatString("%zu passes of %zu simulations",
                               Passes.size(), Passes.front().Runs.size());
  Rep.metric("sweep_s", median(Walls), "s", "median pass wall, " + N);
  Rep.metric("sim_macc_per_s", median(Macc), "Macc/s",
             "simulated accesses per simulation host second");
  Savings(F.Specs, Passes.front(), Rep);
  // Each simulation's latency is its median over passes; the quantiles
  // run over the simulations.
  std::vector<double> SimMs;
  for (const std::vector<double> &Ms : JobMs)
    SimMs.push_back(median(Ms));
  std::string Sims = formatString("over %zu simulations' median latency",
                                  SimMs.size());
  Rep.metric("serve_p50_ms", quantile(SimMs, 0.5), "ms", Sims);
  Rep.metric("serve_p99_ms", quantile(SimMs, 0.99), "ms", Sims);
  Rep.metric("serve_rps", median(Rate), "req/s", "simulations per second");
  Rep.metric("setup_s", median(SetupS), "s",
             formatString("median of %zu set-ups", SetupS.size()));
  Rep.metric("peak_rss_mb", selfPeakRssMb(), "MB", "benchmark process");
}

const SimResult &resultOf(const std::vector<SimSpec> &Specs, const Pass &P,
                          const std::string &Label) {
  for (std::size_t I = 0; I < Specs.size(); ++I)
    if (Specs[I].Label == Label)
      return P.Runs[I].R;
  reportFatalError(("no simulation labelled " + Label).c_str());
}

} // namespace

void perfbench::runEvalSweep(const BenchArgs &Args, ExpectedStats &Expected,
                             SpanLog &Spans, Report &Rep,
                             LayerValues &Layers) {
  unsigned Jobs = hostThreads();
  Rep.line(formatString("eval-sweep: 13 apps x {original, optimized}, "
                        "jobs %u",
                        Jobs));
  auto Savings = [](const std::vector<SimSpec> &Specs, const Pass &P,
                    Report &R) {
    std::vector<SavingsSummary> All;
    for (std::size_t I = 0; I + 1 < Specs.size(); I += 2)
      All.push_back(summarizeSavings(P.Runs[I].R, P.Runs[I + 1].R));
    reportSavings(averageSavings(All),
                  formatString("mean of %zu apps", All.size()), R);
  };
  runSimWorkload(Args, Jobs, buildEvalSweep, Savings, Expected, Spans, Rep,
                 Layers);
}

void perfbench::runOffchipSerial(const BenchArgs &Args,
                                 ExpectedStats &Expected, SpanLog &Spans,
                                 Report &Rep, LayerValues &Layers) {
  Rep.line(formatString("offchip-serial: fig25 swim+mgrid, record sweep, "
                        "swim MSI original/optimized; %u copies, each one "
                        "simulation at a time",
                        hostThreads()));
  auto Savings = [](const std::vector<SimSpec> &Specs, const Pass &P,
                    Report &R) {
    reportSavings(
        summarizeSavings(
            resultOf(Specs, P, "offchip-serial/swim-msi/original"),
            resultOf(Specs, P, "offchip-serial/swim-msi/optimized")),
        "swim under MSI", R);
  };
  runSimWorkload(Args, 0, buildOffchipSerial, Savings, Expected, Spans, Rep,
                 Layers);
}
