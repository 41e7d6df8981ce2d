//===- perfbench/driver/Report.h - Run report and output check --*- C++ -*-===//
///
/// \file
/// What one benchmark run produces: named metrics with units, the
/// attempted/failed operation counts, and the correctness verdict, printed
/// as human-readable lines followed by the one-line JSON result that ends
/// every run. Also the store of expected simulated statistics that every
/// simulation is compared against.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include "sim/Metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line arguments of one run.
struct BenchArgs {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 0.0; // required
  bool Trace = false;
  /// Expected simulated statistics (perfbench/expected.tsv).
  std::string ExpectedPath;
  /// Write the observed statistics to ExpectedPath instead of checking.
  bool Record = false;
  /// The offchip-serve binary serve-mix drives.
  std::string ServeBin;
  /// Directory the traced run writes its span file to.
  std::string OutDir;
};

/// One run's metrics and verdict.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit,
              const std::string &Note = "");
  /// Counts \p N attempted operations.
  void attempted(std::uint64_t N = 1) { Attempted += N; }
  /// Records one failed operation; the run is then not correct.
  void fail(const std::string &Why);
  /// A human-readable line on stdout (before the result line).
  void line(const std::string &Text) const;

  bool correct() const { return Failed == 0 && Attempted > 0; }
  std::uint64_t failedCount() const { return Failed; }
  std::uint64_t attemptedCount() const { return Attempted; }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string resultLine() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
};

/// Named simulated statistics of one simulation or one derived quantity,
/// rendered exactly (integers in full, doubles with %.17g).
using StatList = std::vector<std::pair<std::string, std::string>>;

/// Every simulated statistic the benchmark checks for one run, plus a
/// digest of the run's full wire serialization (which covers every field
/// equalResults() compares), so no simulated change can slip through.
StatList simStats(const offchip::SimResult &R);

/// Internal consistency identities of a result (access-class partition,
/// line conservation, ack pairing); one message per violated identity.
std::vector<std::string> simInvariantViolations(const offchip::SimResult &R);

/// Expected statistics keyed by run label ("eval-sweep/swim/optimized").
class ExpectedStats {
public:
  /// Loads \p Path; false (with \p Err) when unreadable or malformed.
  bool load(const std::string &Path, std::string *Err);
  bool save(const std::string &Path, std::string *Err) const;

  /// Compares \p Observed against the stored entry for \p Label;
  /// \returns one message per mismatching statistic (or for a missing
  /// label). With \p Record set, stores \p Observed instead.
  std::vector<std::string> check(const std::string &Label,
                                 const StatList &Observed, bool Record);

private:
  std::map<std::string, StatList> Entries;
};

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// 64-bit FNV-1a of \p S (digests of serialized results).
std::uint64_t fnv1a(const std::string &S);

/// Linear-interpolated quantile (0 <= \p Q <= 1) of an unsorted sample.
double quantile(std::vector<double> Samples, double Q);
double median(const std::vector<double> &Samples);
double sum(const std::vector<double> &Samples);

/// Host provenance: hardware threads and the CPU model string.
unsigned hostThreads();
std::string cpuModel();
/// Peak resident set of this process, in MB.
double selfPeakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
