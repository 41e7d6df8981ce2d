//===- trace/TraceEvent.h - Trace configuration and event record -*- C++ -*-===//
///
/// \file
/// The cycle-stamped binary event record the tracing subsystem collects and
/// the configuration block that turns it on (MachineConfig::Trace). One
/// TraceEvent is one lifecycle step of one simulated memory access: a cache
/// probe outcome, one NoC link hop, an MC enqueue, a bank service, a fill.
///
/// Ordering invariant: every event carries the packed (time << ThreadShift)
/// | thread key of the access that caused it, and all events of one access
/// are recorded into one per-node buffer in emission order. A stable sort of
/// the concatenated buffers by Key therefore yields the engine's event
/// order, a pure function of the run's configuration — the property the
/// byte-identical trace.json tests pin.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_TRACE_TRACEEVENT_H
#define OFFCHIP_TRACE_TRACEEVENT_H

#include <cstdint>
#include <string>
#include <vector>

namespace offchip {

/// What happened. Values are stable across exports (they appear in the
/// binary record and as names in trace.json).
enum class TraceKind : std::uint8_t {
  L1Hit = 0,      ///< L1 probe hit; Dur = L1 latency.
  L1Miss,         ///< L1 probe miss; Dur = L1 latency.
  L2Hit,          ///< L2 probe hit (local slice or shared home bank; Aux =
                  ///< probed node).
  L2Miss,         ///< L2 probe miss (Aux = probed node).
  DirLookup,      ///< Directory tag walk at the owning MC's node (Aux).
  RemoteL2Hit,    ///< Forwarded to a sharing L2 (Aux = sharer node).
  NocHop,         ///< One link traversal; Aux = directed link id
                  ///< (node * 4 + direction), Dur = flits serialized.
  MCEnqueue,      ///< Request arrival at the MC; Aux = MC id, Dur = queue
                  ///< wait cycles.
  BankService,    ///< Bank busy servicing; Aux = (MC id << 16) | (bank << 1)
                  ///< | row-hit, Dur = service cycles.
  L1Fill,         ///< Line filled into the requester's L1.
  Complete,       ///< Whole off-tile access span: Start = issue cycle, Dur =
                  ///< end-to-end latency.
  BurstCoalesce,  ///< A coalesced wide DRAM transaction (appended last:
                  ///< values are stable across exports); Aux = (MC id << 8)
                  ///< | line count, Dur = bank service cycles.
  Invalidate = 13, ///< Coherence invalidation delivered to a holder; Aux =
                   ///< invalidated node, Addr = line PA. (12 is retired.)
  Downgrade = 14,  ///< Exclusive/Modified holder demoted to Shared by a
                   ///< remote read; Aux = downgraded node, Addr = line PA.
  InvAck = 15,     ///< Invalidation ack received at the directory; Aux =
                   ///< acking node, Addr = line PA.
};

/// Fixed-size binary event record (see the file comment for the ordering
/// contract).
struct TraceEvent {
  std::uint64_t Key = 0;   ///< Packed (time, thread) key of the owning access.
  std::uint64_t Start = 0; ///< Cycle the step begins.
  std::uint64_t Addr = 0;  ///< Address (VA on tile-local steps, PA beyond).
  std::uint32_t Dur = 0;   ///< Step duration in cycles (flits for NocHop).
  std::uint32_t Aux = 0;   ///< Kind-specific payload (link/MC/bank/node id).
  std::uint16_t Node = 0;  ///< Node that issued the owning access.
  TraceKind Kind = TraceKind::L1Hit;
};

/// Tracing knobs; MachineConfig::Trace. Default-constructed tracing is off
/// and costs one null-pointer test per instrumentation site.
struct TraceConfig {
  /// Master switch; everything below is ignored when false.
  bool Enabled = false;
  /// Write a Chrome/Perfetto trace.json here after the run (empty: keep the
  /// events in SimResult::Trace only).
  std::string ChromeOutPath;
  /// Write the compact time-series CSV (tools/trace-report input) here
  /// after the run (empty: keep in memory only).
  std::string SeriesOutPath;
  /// Bucket width, in cycles, of the derived link-utilization and MC
  /// queue-depth time series.
  unsigned SampleCycles = 4096;
  /// Ring capacity of each node's event buffer; when an access pushes a
  /// node past it the node's oldest events are dropped (newest are kept).
  /// Drops are deterministic — a pure function of the node's event
  /// sequence — so capped traces stay byte-identical run to run.
  std::uint64_t MaxEventsPerNode = 4096;
};

/// Everything an exporter needs, detached from the live simulation:
/// machine geometry, the sorted event list, and the always-complete
/// aggregate tables (which ignore the ring cap; see TraceSink).
struct TraceData {
  TraceConfig Config;
  unsigned NumNodes = 0;
  unsigned MeshX = 0;
  unsigned NumMCs = 0;
  unsigned ThreadShift = 0;
  std::vector<unsigned> MCNodes;
  /// All retained events, stably sorted by Key (serial event order).
  std::vector<TraceEvent> Events;
  /// Events emitted in total, including ones the rings dropped.
  std::uint64_t EmittedEvents = 0;
  std::uint64_t DroppedEvents = 0;

  /// Per-link busy cycles per SampleCycles bucket; Links[l] may be shorter
  /// than the longest series (trailing zeros are not stored).
  std::vector<std::vector<std::uint64_t>> LinkBusyPerBucket;
  /// Per-MC, per-bucket: requests enqueued and total queue-wait cycles.
  struct McSample {
    std::uint64_t Enqueued = 0;
    std::uint64_t WaitCycles = 0;
  };
  std::vector<std::vector<McSample>> McQueuePerBucket;
  /// Row-major [node][mc] off-chip request counts (the Figure 13 map,
  /// re-derived from the trace so reports can cross-check SimResult).
  std::vector<std::uint64_t> NodeToMCRequests;

  std::uint64_t requestsAt(unsigned Node, unsigned MC) const {
    return NodeToMCRequests[static_cast<std::size_t>(Node) * NumMCs + MC];
  }
};

} // namespace offchip

#endif // OFFCHIP_TRACE_TRACEEVENT_H
