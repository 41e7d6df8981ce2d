//===- perfbench/driver/Spans.h - In-memory span recorder -------*- C++ -*-===//
///
/// \file
/// The traced run's spans: each one names a call the benchmark makes into a
/// module's public functions, the module (layer) it belongs to, its start
/// and end on the steady clock, the span that caused it, and — for serve
/// requests — the request id its spans share. Spans are kept in memory and
/// written to one JSON file when the run ends.
///
/// A Scope always times its interval (two clock reads), so the untraced run
/// measures with the same code; only a traced log stores the span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}
  SpanLog(const SpanLog &) = delete;
  SpanLog &operator=(const SpanLog &) = delete;

  bool enabled() const { return Enabled; }

  /// A timed interval; recorded into its log on end() or destruction when
  /// the log is enabled.
  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name, const char *Layer,
          std::uint64_t Parent = 0, std::uint64_t Request = 0);
    ~Scope() { end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// Closes the span (idempotent) and \returns its length in seconds.
    double end();
    /// The id children name as their parent (0 when the log is disabled).
    std::uint64_t id() const { return Id; }

  private:
    SpanLog &Log;
    const char *Name;
    const char *Layer;
    std::uint64_t Id, Parent, Request;
    Clock::time_point Start;
    double Seconds = -1.0;
  };

  /// Seconds each layer spent in its own spans, not covered by child spans.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// Writes every span as a JSON array; false when the file cannot be
  /// written. A disabled log writes nothing and succeeds.
  bool write(const std::string &Path) const;

private:
  struct Span {
    std::uint64_t Id, Parent, Request;
    const char *Name;
    const char *Layer;
    double StartS, EndS; // seconds since Origin
  };

  void record(const Span &S);

  const bool Enabled;
  const Clock::time_point Origin;
  std::atomic<std::uint64_t> NextId{1};
  mutable std::mutex Mu;
  std::vector<Span> Spans; // guarded by Mu
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
