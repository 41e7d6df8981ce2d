//===- perfbench/driver/Report.cpp ----------------------------------------===//

#include "Report.h"

#include "api/Json.h"
#include "api/Serialize.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <sys/resource.h>

using namespace offchip;
using namespace perfbench;

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, const std::string &Note) {
  Metrics.push_back({Name, Value, Unit});
  line(formatString("metric %-28s %14.6g %-8s%s%s", Name.c_str(), Value,
                    Unit.c_str(), Note.empty() ? "" : "  ", Note.c_str()));
}

void Report::fail(const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "FAIL: %s\n", Why.c_str());
}

void Report::line(const std::string &Text) const {
  std::printf("%s\n", Text.c_str());
  std::fflush(stdout);
}

std::string Report::resultLine() const {
  JsonValue M = JsonValue::object();
  for (const Metric &X : Metrics) {
    JsonValue V = JsonValue::object();
    V.set("value", JsonValue::number(X.Value));
    V.set("unit", JsonValue::string(X.Unit));
    M.set(X.Name, std::move(V));
  }
  JsonValue Out = JsonValue::object();
  Out.set("correct", JsonValue::boolean(correct()));
  Out.set("attempted", JsonValue::number(Attempted));
  Out.set("failed", JsonValue::number(Failed));
  Out.set("metrics", std::move(M));
  return Out.write();
}

//===----------------------------------------------------------------------===//
// Simulated statistics
//===----------------------------------------------------------------------===//

namespace {

std::string exact(double V) { return formatString("%.17g", V); }
std::string exact(std::uint64_t V) {
  return formatString("%llu", static_cast<unsigned long long>(V));
}

std::uint64_t sumU64(const std::vector<std::uint64_t> &V) {
  return std::accumulate(V.begin(), V.end(), std::uint64_t{0});
}

} // namespace

StatList perfbench::simStats(const SimResult &R) {
  return {
      {"accesses", exact(R.TotalAccesses)},
      {"exec_cycles", exact(R.ExecutionCycles)},
      {"l1_hits", exact(R.L1Hits)},
      {"l2_local_hits", exact(R.LocalL2Hits)},
      {"l2_remote_hits", exact(R.RemoteL2Hits)},
      {"offchip_accesses", exact(R.OffChipAccesses)},
      {"coh_upgrades", exact(R.CoherenceUpgrades)},
      {"invalidations", exact(R.Invalidations)},
      {"downgrades", exact(R.Downgrades)},
      {"coh_writebacks", exact(R.CoherenceWritebacks)},
      {"coh_msgs", exact(R.CohMsgHops.total())},
      {"link_busy_cycles", exact(R.LinkBusyCycles)},
      {"onchip_hops_mean", exact(R.OnChipMsgHops.mean())},
      {"offchip_hops_mean", exact(R.OffChipMsgHops.mean())},
      {"onchip_net_lat_mean", exact(R.OnChipNetLatency.mean())},
      {"offchip_net_lat_mean", exact(R.OffChipNetLatency.mean())},
      {"mem_lat_mean", exact(R.MemLatency.mean())},
      {"row_hit_rate", exact(R.RowHitRate)},
      {"bank_queue_occ", exact(R.AvgBankQueueOccupancy)},
      {"dram_lines", exact(sumU64(R.PerMCLines))},
      {"allocated_pages", exact(R.AllocatedPages)},
      {"redirected_pages", exact(R.RedirectedPages)},
      {"digest", formatString("%016llx", static_cast<unsigned long long>(
                                             fnv1a(toJson(R).write())))},
  };
}

std::vector<std::string>
perfbench::simInvariantViolations(const SimResult &R) {
  std::vector<std::string> Out;
  std::uint64_t Classes = R.L1Hits + R.LocalL2Hits + R.RemoteL2Hits +
                          R.OffChipAccesses + R.CoherenceUpgrades;
  if (Classes != R.TotalAccesses)
    Out.push_back(formatString("access classes sum to %llu, not %llu",
                               static_cast<unsigned long long>(Classes),
                               static_cast<unsigned long long>(
                                   R.TotalAccesses)));
  std::uint64_t Lines = sumU64(R.PerMCLines);
  if (Lines != R.OffChipAccesses - R.BurstTransactions + R.BurstLines)
    Out.push_back("per-MC lines do not conserve off-chip accesses");
  if (R.Invalidations != R.InvalidationAcks)
    Out.push_back("invalidations and acks do not pair");
  if (R.CohMsgHops.total() !=
      2 * R.CoherenceUpgrades + 2 * R.Invalidations + R.Downgrades)
    Out.push_back("coherence message count does not match its sources");
  return Out;
}

//===----------------------------------------------------------------------===//
// Expected statistics
//===----------------------------------------------------------------------===//

bool ExpectedStats::load(const std::string &Path, std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot read " + Path;
    return false;
  }
  std::string Line;
  unsigned N = 0;
  while (std::getline(In, Line)) {
    ++N;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream S(Line);
    std::string Label, Name, Value;
    if (!std::getline(S, Label, '\t') || !std::getline(S, Name, '\t') ||
        !std::getline(S, Value)) {
      *Err = formatString("%s:%u: expected label<TAB>stat<TAB>value",
                          Path.c_str(), N);
      return false;
    }
    Entries[Label].push_back({Name, Value});
  }
  return true;
}

bool ExpectedStats::save(const std::string &Path, std::string *Err) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    *Err = "cannot write " + Path;
    return false;
  }
  Out << "# Expected simulated statistics of every perfbench simulation.\n"
         "# Regenerate with: python3 perfbench/run.py --record (see "
         "perfbench/README.md).\n";
  for (const auto &[Label, Stats] : Entries)
    for (const auto &[Name, Value] : Stats)
      Out << Label << '\t' << Name << '\t' << Value << '\n';
  return static_cast<bool>(Out);
}

std::vector<std::string> ExpectedStats::check(const std::string &Label,
                                              const StatList &Observed,
                                              bool Record) {
  if (Record) {
    Entries[Label] = Observed;
    return {};
  }
  auto It = Entries.find(Label);
  if (It == Entries.end())
    return {"no expected statistics"};
  if (It->second.size() != Observed.size())
    return {"the expected statistics list other statistics"};
  std::vector<std::string> Out;
  for (std::size_t I = 0; I < Observed.size(); ++I) {
    const auto &[Name, Value] = Observed[I];
    if (It->second[I].first != Name || It->second[I].second != Value)
      Out.push_back(formatString("%s = %s, expected %s", Name.c_str(),
                                 Value.c_str(),
                                 It->second[I].second.c_str()));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

std::uint64_t perfbench::fnv1a(const std::string &S) {
  std::uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

double perfbench::quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = Q * static_cast<double>(Samples.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Samples[Lo] * (1.0 - Frac) + Samples[Hi] * Frac;
}

double perfbench::median(const std::vector<double> &Samples) {
  return quantile(Samples, 0.5);
}

double perfbench::sum(const std::vector<double> &Samples) {
  return std::accumulate(Samples.begin(), Samples.end(), 0.0);
}

unsigned perfbench::hostThreads() { return ThreadPool::hardwareThreads(); }

std::string perfbench::cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    for (const char *Key : {"model name", "cpu model", "Processor"}) {
      if (Line.rfind(Key, 0) != 0)
        continue;
      std::size_t Colon = Line.find(':');
      if (Colon == std::string::npos)
        continue;
      std::size_t Begin = Line.find_first_not_of(" \t", Colon + 1);
      if (Begin != std::string::npos)
        return Line.substr(Begin);
    }
  }
  return "unknown";
}

double perfbench::selfPeakRssMb() {
  struct rusage U = {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}
