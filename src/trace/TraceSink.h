//===- trace/TraceSink.h - Low-overhead event collection --------*- C++ -*-===//
///
/// \file
/// Collects TraceEvents during a simulation with near-zero cost when
/// disabled (every instrumentation site is guarded by one pointer test) and
/// no locking when enabled.
///
/// Events are stamped per access: Machine::access opens a context with
/// beginAccess(Node, Key) and closes it with endAccess(); every emit() in
/// between, including those of the instrumented substrates (Network,
/// MemoryController), is stamped with Key and appended to Node's buffer.
/// The sink is single-threaded: one simulation drives it from one thread.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_TRACE_TRACESINK_H
#define OFFCHIP_TRACE_TRACESINK_H

#include "trace/TraceEvent.h"

#include <cassert>

namespace offchip {

class TraceSink {
public:
  /// \p MeshX / \p NumMCs / \p MCNodes describe the machine for the
  /// exporters; NumNodes sizes the per-node buffers.
  TraceSink(const TraceConfig &Config, unsigned NumNodes, unsigned MeshX,
            unsigned NumMCs, std::vector<unsigned> MCNodes);

  /// Opens the per-access context: subsequent emit calls are stamped with
  /// \p Key and appended to \p Node's buffer. Instrumented substrates
  /// (Network, MemoryController) emit through this context so they need no
  /// knowledge of engine keys.
  void beginAccess(unsigned Node, std::uint64_t Key) {
    assert(!CtxActive && "nested trace access contexts");
    CtxActive = true;
    CtxNode = Node;
    CtxKey = Key;
  }

  void endAccess() { CtxActive = false; }

  void emit(TraceKind Kind, std::uint64_t Start, std::uint32_t Dur,
            std::uint64_t Addr, std::uint32_t Aux);

  //===--------------------------------------------------------------------===//
  // Extraction
  //===--------------------------------------------------------------------===//

  /// Moves everything collected into an exportable TraceData: buffers are
  /// unwound in node order and stably sorted by Key, which reproduces the
  /// engine's event order (see TraceEvent.h). Call once, after the
  /// simulation has finished.
  TraceData take(unsigned ThreadShift);

private:
  /// One node's ring: Events[(First + i) % capacity] for i < Count.
  struct NodeRing {
    std::vector<TraceEvent> Events;
    std::size_t First = 0;
    std::size_t Count = 0;
  };

  void push(unsigned Node, const TraceEvent &E);

  TraceConfig Config;
  unsigned MeshX;
  unsigned NumMCs;
  std::vector<unsigned> MCNodes;
  std::vector<NodeRing> Rings;
  /// Events emitted in total, and those the rings overwrote.
  std::uint64_t Emitted = 0;
  std::uint64_t Dropped = 0;

  bool CtxActive = false;
  unsigned CtxNode = 0;
  std::uint64_t CtxKey = 0;

  // Aggregate tables (never ring-capped).
  std::vector<std::vector<std::uint64_t>> LinkBusyPerBucket;
  std::vector<std::vector<TraceData::McSample>> McQueuePerBucket;
  std::vector<std::uint64_t> NodeToMCRequests;
};

} // namespace offchip

#endif // OFFCHIP_TRACE_TRACESINK_H
