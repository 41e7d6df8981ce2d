//===- dram/MemoryController.h - Banked DRAM + MC model ---------*- C++ -*-===//
///
/// \file
/// A memory controller with banked DRAM behind it. Requests are serviced
/// per-bank in arrival order with an open-row (row-buffer) policy: row hits
/// cost tCAS-class latency, row conflicts pay precharge + activate + CAS.
/// This approximates FR-FCFS [16]: with blocking cores the per-bank queue is
/// shallow and the dominant FR-FCFS effect — cheap row-buffer hits for
/// spatially local streams — is captured by the open-row state.
///
/// Queue latency (the paper's third latency class) is the wait between a
/// request's arrival at the MC and the start of its bank service; bank
/// queue utilization (Figure 18) is derived from total wait via Little's
/// law.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_DRAM_MEMORYCONTROLLER_H
#define OFFCHIP_DRAM_MEMORYCONTROLLER_H

#include "support/Pow2.h"
#include "support/Stats.h"

#include <cstdint>
#include <vector>

namespace offchip {

class TraceSink;

/// DRAM device timing in core cycles (DDR3-1600-class, Table 1).
struct DramTiming {
  /// Row-buffer hit: CAS + burst (DDR3-1600 tCL ~ 14 ns at 2 GHz cores).
  unsigned RowHitCycles = 28;
  /// Row conflict: precharge + activate + CAS + burst (tRP+tRCD+tCL).
  unsigned RowMissCycles = 82;
  /// Extra bank cycles per additional line of a coalesced burst (the
  /// leading line pays the full RowHit/RowMiss cost, each follower streams
  /// out of the open row at beat rate). Only used by accessBurst().
  unsigned BurstBeatCycles = 8;
};

struct DramConfig {
  /// Independent banks behind this controller (Table 1: 4 banks/device).
  unsigned Banks = 4;
  /// Row buffer size (Table 1: 4 KB, same as the page size).
  unsigned RowBufferBytes = 4096;
  /// FR-FCFS reordering window, in rows: a request counts as a row hit if
  /// its row is among this many most-recently-served rows of the bank.
  /// FR-FCFS pulls same-row requests out of the queue ahead of conflicting
  /// ones, so requests interleaved with a few other row streams still enjoy
  /// row-buffer locality; a strict-FCFS model would thrash the row on every
  /// thread interleave and erase exactly the queue-latency effect the paper
  /// measures.
  unsigned FrFcfsWindowRows = 8;
  DramTiming Timing;
};

/// Outcome of one DRAM access.
struct DramAccessResult {
  /// Cycle the data is ready at the controller.
  std::uint64_t CompleteTime = 0;
  /// Cycles spent waiting for the bank (the queue latency).
  std::uint64_t QueueCycles = 0;
  /// Bank service cycles (row hit or miss cost).
  std::uint64_t ServiceCycles = 0;
  bool RowHit = false;
};

/// One memory controller.
class MemoryController {
public:
  MemoryController(unsigned Id, DramConfig Config);

  unsigned id() const { return Id; }
  const DramConfig &config() const { return Config; }

  /// Services the access to \p PhysAddr arriving at \p Time, advancing bank
  /// state.
  DramAccessResult access(std::uint64_t PhysAddr, std::uint64_t Time);

  /// Services a coalesced burst of \p NumAddrs line addresses (ascending,
  /// same controller) arriving at \p Time as ONE wide transaction on the
  /// leading line's bank: the leader pays the ordinary row-hit/row-miss
  /// cost, every follower adds Timing.BurstBeatCycles while it stays in the
  /// leader's row and the full row cost on a row change. Counts one entry
  /// in accesses() (it is one transaction) and NumAddrs lines in
  /// linesTransferred(); emits one MCEnqueue/BankService pair. \p NumAddrs
  /// == 1 behaves exactly like access().
  DramAccessResult accessBurst(const std::uint64_t *Addrs,
                               unsigned NumAddrs, std::uint64_t Time);

  /// Contention-free service (optimal scheme of Section 2): zero queue
  /// latency, but the row-buffer behaviour stays realistic (tracked on a
  /// shadow bank state so the optimal run pays hit/conflict service times
  /// without waiting).
  DramAccessResult accessIdeal(std::uint64_t PhysAddr, std::uint64_t Time);

  /// Fire-and-forget writeback: occupies the bank without a waiting
  /// requester.
  void writeback(std::uint64_t PhysAddr, std::uint64_t Time);

  std::uint64_t accesses() const { return Accesses; }
  std::uint64_t rowHits() const { return RowHits; }
  /// L2 lines moved over this controller's channel: access()/accessIdeal()
  /// add 1, accessBurst() adds its line count. Writebacks are not counted
  /// (matching SimResult::NodeToMCTraffic, which counts requests only).
  std::uint64_t linesTransferred() const { return LinesTransferred; }
  std::uint64_t totalQueueCycles() const { return TotalQueueCycles; }
  std::uint64_t totalServiceCycles() const { return TotalServiceCycles; }

  /// Starts accumulating wall-clock time spent in access()/accessIdeal()/
  /// writeback() (SimResult::PhaseTimes). Off by default: measuring reads
  /// the clock twice per request.
  void enableCallTiming() { TimeCalls = true; }

  /// Wall-clock seconds spent servicing requests; zero unless
  /// enableCallTiming() was called. Raw accumulation — the caller subtracts
  /// the calibrated clock-read overhead (support/HostClock.h) using
  /// timedCalls().
  double timedSeconds() const { return TimedSeconds; }

  /// Number of requests that were wrapped in clock reads.
  std::uint64_t timedCalls() const { return TimedCalls; }

  /// Mean number of requests waiting in the bank queues over [0, Now), via
  /// Little's law (total wait cycles / elapsed cycles). Figure 18's
  /// bank-queue occupancy metric.
  double averageQueueOccupancy(std::uint64_t Now) const;

  /// Fraction of [0, Now) during which at least this controller's busiest
  /// bank was busy; a utilization proxy.
  double bankUtilization(std::uint64_t Now) const;

  /// Attaches the tracing sink; accesses must then run inside its
  /// per-access context (Machine::access opens it). access()/accessIdeal()
  /// emit one MCEnqueue (Aux = MC id, Dur = queue-wait cycles) and one
  /// BankService (Aux = (MC id << 16) | (bank << 1) | row-hit, Dur =
  /// service cycles) event. writeback() stays silent so the traced request
  /// counts match SimResult::NodeToMCTraffic.
  void setTraceSink(TraceSink *S) { Sink = S; }

  void reset();

private:
  struct Bank {
    std::uint64_t BusyUntil = 0;
    /// Most-recently-served rows, front = newest (FR-FCFS window).
    std::vector<std::int64_t> RecentRows;
    std::uint64_t BusyCycles = 0;
  };

  /// True (and refreshed) when \p Row is within the bank's FR-FCFS window.
  bool isRowHit(Bank &B, std::int64_t Row) const;

  /// XOR-folded bank index. A plain modulo would lock whole physical
  /// regions to one bank whenever the allocator hands out addresses with a
  /// fixed row residue (e.g. page-interleaved PPNs are congruent to the MC
  /// id); real controllers fold higher address bits into the bank bits for
  /// exactly this reason.
  unsigned bankOf(std::uint64_t PhysAddr) const {
    std::uint64_t Row = RowDiv.div(PhysAddr);
    std::uint64_t Div1 = BankDiv.div(Row);
    std::uint64_t H = Row ^ Div1 ^ BankDiv.div(Div1);
    return static_cast<unsigned>(BankDiv.mod(H));
  }
  std::int64_t rowOf(std::uint64_t PhysAddr) const {
    return static_cast<std::int64_t>(BankDiv.div(RowDiv.div(PhysAddr)));
  }

  unsigned Id;
  DramConfig Config;
  /// Shift/mask decode of RowBufferBytes / Banks (generic fallback for
  /// non-power-of-two values).
  Pow2Divider RowDiv;
  Pow2Divider BankDiv;
  std::vector<Bank> Banks;
  /// Row-state shadow used by accessIdeal().
  std::vector<Bank> IdealBanks;
  std::uint64_t Accesses = 0;
  std::uint64_t RowHits = 0;
  std::uint64_t LinesTransferred = 0;
  std::uint64_t TotalQueueCycles = 0;
  std::uint64_t TotalServiceCycles = 0;
  bool TimeCalls = false;
  double TimedSeconds = 0.0;
  std::uint64_t TimedCalls = 0;
  TraceSink *Sink = nullptr;
};

} // namespace offchip

#endif // OFFCHIP_DRAM_MEMORYCONTROLLER_H
