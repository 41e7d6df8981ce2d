//===- api/Execute.cpp ----------------------------------------------------===//

#include "api/Execute.h"

#include "affine/ProgramText.h"
#include "core/CodeGen.h"
#include "harness/Runner.h"
#include "support/Format.h"
#include "workloads/WorkloadFactory.h"

#include <chrono>
#include <utility>

using namespace offchip;

namespace {

PlanSummary summarizePlan(const AffineProgram &Program,
                          const LayoutPlan &Plan,
                          const ClusterMapping &Mapping) {
  PlanSummary S;
  S.ProgramName = Program.name();
  S.NumClusters = Mapping.numClusters();
  S.CoresPerClusterX = Mapping.coresPerClusterX();
  S.CoresPerClusterY = Mapping.coresPerClusterY();
  S.MCsPerCluster = Mapping.mcsPerCluster();
  for (ArrayId Id = 0; Id < Program.numArrays(); ++Id) {
    const ArrayLayoutResult &R = Plan.PerArray[Id];
    if (!R.Accessed)
      continue;
    PlanArrayRow Row;
    Row.Name = Program.array(Id).Name;
    Row.Optimized = R.Optimized;
    Row.U = R.Optimized ? R.U.toString() : "-";
    Row.Note = R.Note;
    S.Arrays.push_back(std::move(Row));
  }
  S.ArraysOptimizedFraction = Plan.arraysOptimizedFraction();
  S.RefsSatisfiedFraction = Plan.refsSatisfiedFraction();
  S.TransformedSource = emitProgram(Program, Plan);
  return S;
}

} // namespace

SimResponse offchip::executeRequest(const SimRequest &R, unsigned Jobs) {
  auto Start = std::chrono::steady_clock::now();
  SimResponse Resp;
  Resp.Id = R.Id;

  // The config gate first — same order as the CLI, which rejects impossible
  // machines before it even reads the program file.
  if (std::vector<ConfigDiagnostic> Diags = R.Config.validate();
      !Diags.empty()) {
    Resp.Status = ResponseStatus::Error;
    Resp.Diagnostics = std::move(Diags);
    return Resp;
  }
  // Grouped (M2-style) mappings additionally assume each contiguous MC
  // group is spatially tight; an Explicit placement can violate that
  // silently, so it gets a structured rejection rather than a quietly
  // pessimized mapping.
  if (std::vector<ConfigDiagnostic> Diags =
          R.Config.validateGrouping(R.MCsPerCluster);
      !Diags.empty()) {
    Resp.Status = ResponseStatus::Error;
    Resp.Diagnostics = std::move(Diags);
    return Resp;
  }

  // Resolve the workload. Registry apps carry their modeled compute gap;
  // inline programs use the machine default (gap 0 = fall back to
  // MachineConfig::ComputeGapCycles), matching the historical CLI path.
  std::optional<AffineProgram> Program;
  unsigned GapCycles = 0;
  if (R.Workload.isApp()) {
    // appNames() (not the factory directly) both names the alternatives
    // and anchors workloads/Apps.cpp into every binary linking this
    // library — static registrars in an archive member nothing references
    // would otherwise be dropped, leaving the registry empty.
    (void)appNames();
    if (!validSizeScale(R.Workload.SizeScale)) {
      Resp.Status = ResponseStatus::Error;
      Resp.Diagnostics.push_back(
          {"scale", formatString("%g", R.Workload.SizeScale),
           formatString("must be > 0 and at most %g", MaxSizeScale),
           "use 1.0 for the application's default array extents"});
      return Resp;
    }
    std::optional<AppModel> M = WorkloadFactory::instance().tryBuild(
        R.Workload.App, R.Workload.SizeScale);
    if (!M) {
      Resp.Status = ResponseStatus::Error;
      Resp.ErrorText = formatString(
          "unknown application '%s' (registered: %s)",
          R.Workload.App.c_str(),
          WorkloadFactory::instance().namesHelp().c_str());
      return Resp;
    }
    GapCycles = M->ComputeGapCycles;
    Program = std::move(M->Program);
  } else {
    std::string Err;
    Program = parseProgramText(R.Workload.ProgramText, &Err);
    if (!Program) {
      Resp.Status = ResponseStatus::Error;
      Resp.ErrorText = std::move(Err);
      return Resp;
    }
  }

  const MachineConfig &Config = R.Config;
  ClusterMapping Mapping = R.MCsPerCluster == 1
                               ? makeM1Mapping(Config)
                               : makeM2Mapping(Config, R.MCsPerCluster);

  LayoutTransformer Pass(Mapping, Config.layoutOptions());
  LayoutPlan Plan = Pass.run(*Program);
  Resp.Plan = summarizePlan(*Program, Plan, Mapping);

  if (R.Kind == RequestKind::Simulate) {
    MachineConfig BaseConfig = Config;
    MachineConfig OptConfig = Config;
    if (Config.Granularity == InterleaveGranularity::Page)
      OptConfig.PagePolicy = PageAllocPolicy::CompilerGuided;
    if (!R.TracePrefix.empty()) {
      BaseConfig.Trace.Enabled = true;
      BaseConfig.Trace.ChromeOutPath = R.TracePrefix + "-original.trace.json";
      BaseConfig.Trace.SeriesOutPath = R.TracePrefix + "-original.series.csv";
      OptConfig.Trace.Enabled = true;
      OptConfig.Trace.ChromeOutPath = R.TracePrefix + "-optimized.trace.json";
      OptConfig.Trace.SeriesOutPath = R.TracePrefix + "-optimized.series.csv";
    }
    // The two variants are independent; fan them across the runner and join
    // before returning, identical to the CLI's --jobs behaviour.
    ExperimentRunner Runner(Jobs);
    SimFuture BaseF = Runner.submit(
        [&Program, &BaseConfig, &Mapping, GapCycles]() -> SimResult {
          LayoutPlan Original = LayoutTransformer::originalPlan(*Program);
          return runSingle(*Program, Original, BaseConfig, Mapping,
                           GapCycles);
        });
    SimFuture OptF = Runner.submit(
        [&Program, &Plan, &OptConfig, &Mapping, GapCycles]() -> SimResult {
          return runSingle(*Program, Plan, OptConfig, Mapping, GapCycles);
        });
    Resp.Original = BaseF.get();
    Resp.Optimized = OptF.get();
  }

  Resp.ServerSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Resp;
}
