//===- api/Request.h - Service request/response value types -----*- C++ -*-===//
///
/// \file
/// The single request/response vocabulary every client of the optimizer
/// speaks — the offchip-opt CLI, the offchip-serve daemon, the storm
/// driver and the tests all build a SimRequest, hand it to
/// executeRequest() / SimService, and consume a SimResponse. The CLI and
/// the daemon therefore share one validated code path: config problems are
/// MachineConfig::validate() diagnostics either way, and a simulation
/// served over the socket is bit-identical to one run in-process.
///
/// A request names its workload either as a registered application
/// (workloads/WorkloadFactory.h) plus a size scale, or as inline program
/// text in the affine/ProgramText.h format. Requests are value types:
/// copyable, hashable (api/ContentHash.h) and JSON-serializable
/// (api/Serialize.h).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_REQUEST_H
#define OFFCHIP_API_REQUEST_H

#include "sim/MachineConfig.h"
#include "sim/Metrics.h"

#include <optional>
#include <string>
#include <vector>

namespace offchip {

/// What the client wants done with the workload.
enum class RequestKind {
  /// Run the layout pass only: the response carries the plan summary and
  /// transformed source, no simulation.
  Optimize,
  /// Layout pass plus original-vs-optimized simulation.
  Simulate,
};

/// Largest accepted WorkloadSpec::SizeScale. A registry app's extents are
/// its base extents times the scale, rounded to int64; the bound keeps
/// every extent far below overflow (the largest base, 512 Ki elements,
/// reaches 32 Mi).
inline constexpr double MaxSizeScale = 64.0;

/// Whether \p Scale is an accepted array-extent scale: in (0,
/// MaxSizeScale]. False for nan.
inline bool validSizeScale(double Scale) {
  return Scale > 0.0 && Scale <= MaxSizeScale;
}

/// The workload a request operates on.
struct WorkloadSpec {
  /// Registered application name (workload registry); empty selects
  /// \ref ProgramText instead.
  std::string App;
  /// Array-extent scale for registry apps (1.0 = default sizing); valid
  /// in (0, MaxSizeScale], see validSizeScale().
  double SizeScale = 1.0;
  /// Inline textual affine program (affine/ProgramText.h format); used only
  /// when \ref App is empty.
  std::string ProgramText;

  bool isApp() const { return !App.empty(); }
};

/// One optimize/simulate request.
struct SimRequest {
  /// Client-chosen correlation id, echoed verbatim in the response. Not
  /// part of the content hash.
  std::string Id;

  RequestKind Kind = RequestKind::Simulate;
  WorkloadSpec Workload;

  /// The machine to optimize for / simulate on. Its wire form and its part
  /// of the content hash both walk the field list in api/Fields.h. Trace
  /// and CollectPhaseTimes are in neither; CheckInvariants is on the wire
  /// but not hashed. So e.g. a traced or checked request hits the cache
  /// entry a plain request populated.
  MachineConfig Config = MachineConfig::scaledDefault();

  /// 1 selects the M1 mapping (one MC per cluster, Figure 8a); >1 the
  /// M2-style mapping with that many MCs per shared interleave group.
  unsigned MCsPerCluster = 1;

  /// In-process only (not serialized, not hashed): when non-empty, the
  /// simulation writes "<prefix>-original" / "<prefix>-optimized"
  /// .trace.json/.series.csv files. Requests with tracing skip the result
  /// cache lookup so the files are always produced.
  std::string TracePrefix;
};

/// One per-array row of the layout plan, pre-rendered for display (the
/// strings the offchip-opt table has always printed).
struct PlanArrayRow {
  std::string Name;
  bool Optimized = false;
  std::string U;    // the chosen transformation matrix, "[[0, 1], [1, 0]]"
  std::string Note; // decision note (why kept, approximation error, ...)
};

/// The layout-pass outcome: what the optimizer decided and the transformed
/// source, plus the mapping geometry the decisions were made against.
struct PlanSummary {
  std::string ProgramName;
  unsigned NumClusters = 0;
  unsigned CoresPerClusterX = 0;
  unsigned CoresPerClusterY = 0;
  unsigned MCsPerCluster = 0;
  /// Accessed arrays only, in ArrayId order.
  std::vector<PlanArrayRow> Arrays;
  double ArraysOptimizedFraction = 0.0;
  double RefsSatisfiedFraction = 0.0;
  /// emitProgram() output (Figure 9c style).
  std::string TransformedSource;
};

enum class ResponseStatus {
  Ok,
  /// The request was invalid: config diagnostics in \ref
  /// SimResponse::Diagnostics, or a workload problem in \ref
  /// SimResponse::ErrorText.
  Error,
  /// Admission control rejected the request (bounded queue full). Retry
  /// later; nothing was computed.
  Overloaded,
};

/// The answer to one SimRequest.
struct SimResponse {
  std::string Id; // echoed from the request
  ResponseStatus Status = ResponseStatus::Ok;

  /// Non-config error ("cannot parse program: ...", "unknown app '...'");
  /// set when Status == Error and Diagnostics is empty.
  std::string ErrorText;
  /// MachineConfig::validate() output; set when Status == Error and the
  /// config was at fault.
  std::vector<ConfigDiagnostic> Diagnostics;

  /// Layout outcome (Ok responses).
  PlanSummary Plan;
  /// Simulation results (Ok responses to Simulate requests): the original
  /// layouts and the optimized layouts run.
  std::optional<SimResult> Original;
  std::optional<SimResult> Optimized;

  /// True when this answer came from the content-addressed result cache.
  bool CacheHit = false;
  /// True when this answer was merged onto another client's identical
  /// in-flight request (single-flight): the simulation ran once and this
  /// response repeats its result. Mutually exclusive with CacheHit.
  bool Singleflight = false;
  /// The request's canonical content key (32 hex digits), reported so
  /// clients can correlate cache behaviour; empty for in-process runs that
  /// bypassed the cache entirely.
  std::string Key;
  /// Host seconds the service spent computing the underlying result (0 is
  /// never reported for a genuinely computed response; cache hits repeat
  /// the cold compute time of the entry they hit).
  double ServerSeconds = 0.0;

  bool ok() const { return Status == ResponseStatus::Ok; }
};

} // namespace offchip

#endif // OFFCHIP_API_REQUEST_H
