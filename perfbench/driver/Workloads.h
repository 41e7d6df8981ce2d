//===- perfbench/driver/Workloads.h - The three workloads -------*- C++ -*-===//
///
/// \file
/// Entry points of the benchmark's workloads and the shared vocabulary of
/// their metrics. Every workload reports every end-to-end metric (untraced
/// run) or every per-layer metric (traced run); see perfbench/README.md for
/// what each one means on each workload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Report.h"
#include "Spans.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Per-layer values a traced run fills in; names absent from the map are
/// layers the workload does not exercise and print as 0.
using LayerValues = std::map<std::string, double>;

/// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>> &layerMetricUnits();

/// Adds the simulated per-layer statistics (cache, noc, dram, vm, sim
/// counts) of \p Runs to \p L.
void addSimulatedLayers(const std::vector<const offchip::SimResult *> &Runs,
                        LayerValues &L);

/// Adds each span layer's self time ("<layer>.self_s") to \p L.
void addSelfTimes(const SpanLog &Spans, LayerValues &L);

/// Fewest set-ups before measuring; setup_s is the median of all set-ups.
constexpr unsigned SetupRepeats = 7;

/// The paper's Figure 14 averages, printed beside the simulated savings.
constexpr double PaperExecSavingPct = 17.1;
constexpr double PaperOffchipNetSavingPct = 62.8;
constexpr double PaperMemLatSavingPct = 41.9;

/// Reports the three savings metrics (percent) with the paper's values.
void reportSavings(const offchip::SavingsSummary &S, const std::string &Of,
                   Report &Rep);

/// Each runs one workload, filling \p Rep (end-to-end metrics, or nothing
/// but failures in a traced run) and, when \p Args.Trace, \p Layers.
void runEvalSweep(const BenchArgs &Args, ExpectedStats &Expected,
                  SpanLog &Spans, Report &Rep, LayerValues &Layers);
void runOffchipSerial(const BenchArgs &Args, ExpectedStats &Expected,
                      SpanLog &Spans, Report &Rep, LayerValues &Layers);
void runServeMix(const BenchArgs &Args, SpanLog &Spans, Report &Rep,
                 LayerValues &Layers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
