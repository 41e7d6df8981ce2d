//===- perfbench/driver/main.cpp - benchmark entry point ------------------===//
///
/// perfbench-driver --workload <eval-sweep|offchip-serial|serve-mix>
///                  --seed <n> --seconds <s> --trace <0|1>
///                  --expected <file> --serve-bin <path> --out-dir <dir>
///                  [--record]
///
/// Prints provenance and every metric by name with its unit, then, as the
/// last stdout line, one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
/// per-layer ones and writes the run's spans to <out-dir>. --record
/// rewrites the expected simulated statistics instead of checking them.
/// Normally run through perfbench/run.py, which builds this binary first.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace offchip;
using namespace perfbench;

const std::vector<std::pair<std::string, std::string>> &
perfbench::layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"harness.parallel_eff", "ratio"},
      {"harness.tail_idle_s", "s"},
      {"harness.self_s", "s"},
      {"workloads.build_s", "s"},
      {"workloads.self_s", "s"},
      {"core.plan_s", "s"},
      {"core.self_s", "s"},
      {"core.arrays_optimized_frac", "ratio"},
      {"sim.run_s_median", "s"},
      {"sim.run_s_max", "s"},
      {"sim.host_ns_per_access", "ns"},
      {"sim.stream_replay_s", "s"},
      {"sim.stream_s", "s"},
      {"sim.unattributed_s", "s"},
      {"sim.self_s", "s"},
      {"sim.accesses", "count"},
      {"sim.exec_cycles", "cycles"},
      {"cache.l1_hit_ratio", "ratio"},
      {"cache.l2_local_hit_ratio", "ratio"},
      {"cache.l2_remote_hit_ratio", "ratio"},
      {"cache.offchip_ratio", "ratio"},
      {"cache.coh_upgrades", "count"},
      {"cache.invalidations", "count"},
      {"cache.downgrades", "count"},
      {"cache.coh_writebacks", "count"},
      {"noc.send_s", "s"},
      {"noc.coh_msg_hops", "hops"},
      {"noc.link_util_pct", "%"},
      {"noc.offchip_hops_mean", "hops"},
      {"noc.onchip_hops_mean", "hops"},
      {"noc.offchip_net_lat_cycles", "cycles"},
      {"dram.s", "s"},
      {"dram.row_hit_rate", "ratio"},
      {"dram.bank_queue_occ", "requests"},
      {"dram.mem_lat_cycles", "cycles"},
      {"dram.lines", "count"},
      {"vm.allocated_pages", "count"},
      {"vm.redirected_pages", "count"},
      {"api.encode_us", "us"},
      {"api.decode_us", "us"},
      {"api.key_us", "us"},
      {"api.overhead_ms_hit", "ms"},
      {"api.overhead_ms_miss", "ms"},
      {"api.server_ms", "ms"},
      {"api.self_s", "s"},
      {"api.cache_hit_ratio", "ratio"},
      {"api.singleflight_ratio", "ratio"},
      {"api.overloaded_retries", "count"},
      {"trace.overhead_pct", "%"},
  };
  return M;
}

void perfbench::addSimulatedLayers(const std::vector<const SimResult *> &Runs,
                                   LayerValues &L) {
  double Acc = 0, L1 = 0, L2L = 0, L2R = 0, Off = 0, Cycles = 0;
  double Upg = 0, Inv = 0, Down = 0, CohWb = 0, CohHops = 0;
  double Busy = 0, LinkCycles = 0, OffHops = 0, OffMsgs = 0, OnHops = 0,
         OnMsgs = 0, OffLat = 0, OffLatN = 0, MemLat = 0, MemLatN = 0;
  double RowHits = 0, Lines = 0, Occ = 0, Alloc = 0, Redir = 0;
  for (const SimResult *R : Runs) {
    Acc += R->TotalAccesses;
    L1 += R->L1Hits;
    L2L += R->LocalL2Hits;
    L2R += R->RemoteL2Hits;
    Off += R->OffChipAccesses;
    Cycles += R->ExecutionCycles;
    Upg += R->CoherenceUpgrades;
    Inv += R->Invalidations;
    Down += R->Downgrades;
    CohWb += R->CoherenceWritebacks;
    CohHops += R->CohMsgHops.mean() * R->CohMsgHops.total();
    Busy += R->LinkBusyCycles;
    // Four outgoing links per node, as bench_coherence_experiments counts.
    LinkCycles += 4.0 * R->NumNodes * R->ExecutionCycles;
    OffHops += R->OffChipMsgHops.mean() * R->OffChipMsgHops.total();
    OffMsgs += R->OffChipMsgHops.total();
    OnHops += R->OnChipMsgHops.mean() * R->OnChipMsgHops.total();
    OnMsgs += R->OnChipMsgHops.total();
    OffLat += R->OffChipNetLatency.sum();
    OffLatN += R->OffChipNetLatency.count();
    MemLat += R->MemLatency.sum();
    MemLatN += R->MemLatency.count();
    double RunLines = 0;
    for (std::uint64_t N : R->PerMCLines)
      RunLines += N;
    Lines += RunLines;
    RowHits += R->RowHitRate * RunLines;
    Occ += R->AvgBankQueueOccupancy;
    Alloc += R->AllocatedPages;
    Redir += R->RedirectedPages;
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  L["sim.accesses"] = Acc;
  L["sim.exec_cycles"] = Cycles;
  L["cache.l1_hit_ratio"] = Ratio(L1, Acc);
  L["cache.l2_local_hit_ratio"] = Ratio(L2L, Acc);
  L["cache.l2_remote_hit_ratio"] = Ratio(L2R, Acc);
  L["cache.offchip_ratio"] = Ratio(Off, Acc);
  L["cache.coh_upgrades"] = Upg;
  L["cache.invalidations"] = Inv;
  L["cache.downgrades"] = Down;
  L["cache.coh_writebacks"] = CohWb;
  L["noc.coh_msg_hops"] = CohHops;
  L["noc.link_util_pct"] = 100.0 * Ratio(Busy, LinkCycles);
  L["noc.offchip_hops_mean"] = Ratio(OffHops, OffMsgs);
  L["noc.onchip_hops_mean"] = Ratio(OnHops, OnMsgs);
  L["noc.offchip_net_lat_cycles"] = Ratio(OffLat, OffLatN);
  L["dram.row_hit_rate"] = Ratio(RowHits, Lines);
  L["dram.bank_queue_occ"] = Ratio(Occ, static_cast<double>(Runs.size()));
  L["dram.mem_lat_cycles"] = Ratio(MemLat, MemLatN);
  L["dram.lines"] = Lines;
  L["vm.allocated_pages"] = Alloc;
  L["vm.redirected_pages"] = Redir;
}

void perfbench::addSelfTimes(const SpanLog &Spans, LayerValues &L) {
  for (const auto &[Layer, Seconds] : Spans.selfSecondsByLayer())
    if (Layer != "perfbench")
      L[Layer + ".self_s"] = Seconds;
}

void perfbench::reportSavings(const SavingsSummary &S, const std::string &Of,
                              Report &Rep) {
  Rep.metric("exec_saving_pct", 100.0 * S.ExecutionTime, "%",
             formatString("%s; paper: %.1f%%", Of.c_str(),
                          PaperExecSavingPct));
  Rep.metric("offchip_net_saving_pct", 100.0 * S.OffChipNetLatency, "%",
             formatString("%s; paper: %.1f%%", Of.c_str(),
                          PaperOffchipNetSavingPct));
  Rep.metric("mem_lat_saving_pct", 100.0 * S.MemLatency, "%",
             formatString("%s; paper: %.1f%%", Of.c_str(),
                          PaperMemLatSavingPct));
}

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench-driver --workload "
               "<eval-sweep|offchip-serial|serve-mix> --seed <n> --seconds "
               "<s> --trace <0|1> --expected <file> --serve-bin <path> "
               "--out-dir <dir> [--record]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--record") {
      Args.Record = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      Args.Workload = V;
    else if (A == "--seed")
      Args.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (A == "--seconds")
      Args.Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--trace" && (V == "0" || V == "1"))
      Args.Trace = V == "1";
    else if (A == "--expected")
      Args.ExpectedPath = V;
    else if (A == "--serve-bin")
      Args.ServeBin = V;
    else if (A == "--out-dir")
      Args.OutDir = V;
    else
      return usage(("unknown flag " + A).c_str());
    if (End && *End != '\0')
      return usage(("bad number for " + A).c_str());
  }
  bool Sim = Args.Workload == "eval-sweep" ||
             Args.Workload == "offchip-serial";
  if (!Sim && Args.Workload != "serve-mix")
    return usage("unknown workload");
  if (Args.Seconds <= 0 || Args.OutDir.empty() ||
      (Sim && Args.ExpectedPath.empty()) ||
      (!Sim && Args.ServeBin.empty()))
    return usage("missing or invalid arguments");

  Report Rep;
  unsigned Threads = hostThreads();
  Rep.line(formatString("perfbench: workload %s, seed %llu, %.0f s, trace "
                        "%d",
                        Args.Workload.c_str(),
                        static_cast<unsigned long long>(Args.Seed),
                        Args.Seconds, Args.Trace ? 1 : 0));
  Rep.line(formatString("host: nproc %u, cpu \"%s\"", Threads,
                        cpuModel().c_str()));

  ExpectedStats Expected;
  std::string Err;
  if (Sim && !Args.Record && !Expected.load(Args.ExpectedPath, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (Sim && Args.Record)
    Expected.load(Args.ExpectedPath, &Err); // keep the other workload's

  SpanLog Spans(Args.Trace);
  LayerValues Layers;
  if (Args.Workload == "eval-sweep")
    runEvalSweep(Args, Expected, Spans, Rep, Layers);
  else if (Args.Workload == "offchip-serial")
    runOffchipSerial(Args, Expected, Spans, Rep, Layers);
  else
    runServeMix(Args, Spans, Rep, Layers);

  if (Args.Record) {
    if (!Expected.save(Args.ExpectedPath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded expected statistics in %s\n",
                 Args.ExpectedPath.c_str());
  }

  if (Args.Trace) {
    addSelfTimes(Spans, Layers);
    for (const auto &[Name, Unit] : layerMetricUnits()) {
      auto It = Layers.find(Name);
      Rep.metric(Name, It == Layers.end() ? 0.0 : It->second, Unit,
                 It == Layers.end() ? "(layer not exercised)" : "");
    }
    std::string Path = formatString("%s/spans-%s-seed%llu.json",
                                    Args.OutDir.c_str(),
                                    Args.Workload.c_str(),
                                    static_cast<unsigned long long>(
                                        Args.Seed));
    if (!Spans.write(Path))
      Rep.fail("cannot write " + Path);
    else
      Rep.line("spans written to " + Path);
  }
  Rep.line(formatString("error_rate %.6g ratio (%llu failed of %llu "
                        "attempted)",
                        Rep.attemptedCount()
                            ? static_cast<double>(Rep.failedCount()) /
                                  Rep.attemptedCount()
                            : 0.0,
                        static_cast<unsigned long long>(Rep.failedCount()),
                        static_cast<unsigned long long>(
                            Rep.attemptedCount())));
  std::printf("%s\n", Rep.resultLine().c_str());
  return 0;
}
