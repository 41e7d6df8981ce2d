//===- check/Invariants.h - Runtime simulation invariant checks -*- C++ -*-===//
///
/// \file
/// Structural invariants of a simulation run, verified at run end when
/// MachineConfig::CheckInvariants is set (and by the differential fuzzer,
/// tools/offchip-fuzz, on every trial):
///
///  - RequestLedger: every access the engine issues retires exactly once,
///    each thread has at most one access in flight, and a thread's event
///    keys never go backwards — caught even when the aggregate counters
///    happen to balance.
///  - Directory/L2 consistency (checkDirectoryAgainstL2s): the sharer set
///    the directory tracks for a line matches the private L2s that actually
///    hold it, in both directions.
///  - MC traffic conservation (checkMcConservation): each controller's
///    serviced-access count equals its column sum of the per-(node, MC)
///    traffic table, and the table's total equals the run's off-chip access
///    count (writebacks are deliberately outside both, see
///    MemoryController::writeback).
///
/// All checks are read-only and report violations as strings; the caller
/// decides whether to abort. Nothing here ever changes simulation results.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_CHECK_INVARIANTS_H
#define OFFCHIP_CHECK_INVARIANTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace offchip {

class Cache;
class Directory;

/// Issue/retire accounting for every access the engine processes, one slot
/// per simulated thread.
class RequestLedger {
public:
  explicit RequestLedger(unsigned NumThreads) : Slots(NumThreads) {}

  /// Thread \p Thread popped an access with event key \p Key.
  void issue(unsigned Thread, std::uint64_t Key) {
    Slot &S = Slots[Thread];
    if (S.InFlight)
      S.DoubleIssue = true;
    // Non-strict: with zero latencies and a zero compute gap a thread's
    // next key can legally equal its previous one.
    if (S.Issued != 0 && Key < S.LastKey)
      S.OrderViolation = true;
    S.LastKey = Key;
    S.InFlightKey = Key;
    S.InFlight = true;
    ++S.Issued;
  }

  /// The access issued under \p Key completed (its next event was
  /// scheduled).
  void retire(unsigned Thread, std::uint64_t Key) {
    Slot &S = Slots[Thread];
    if (!S.InFlight)
      S.StrayRetire = true;
    else if (S.InFlightKey != Key)
      S.KeyMismatch = true;
    S.InFlight = false;
    ++S.Retired;
  }

  /// End-of-run verification; call after the event loop has finished.
  /// \p TotalAccesses is SimResult::TotalAccesses — every issued access is
  /// counted there exactly once, so the totals must agree. \returns one
  /// message per violated invariant (empty when clean).
  std::vector<std::string> verify(std::uint64_t TotalAccesses) const;

private:
  struct Slot {
    std::uint64_t Issued = 0;
    std::uint64_t Retired = 0;
    std::uint64_t LastKey = 0;
    std::uint64_t InFlightKey = 0;
    bool InFlight = false;
    bool DoubleIssue = false;
    bool StrayRetire = false;
    bool KeyMismatch = false;
    bool OrderViolation = false;
  };
  std::vector<Slot> Slots;
};

/// Invalidation/ack pairing ledger of the coherence protocol
/// (MachineConfig::Coherence). The machine records one invSent when it
/// injects an invalidation toward a node and one ackReceived when that
/// node's copy was actually found and dropped — so a directory entry that
/// names a node whose L2 never held the line shows up as an unacked
/// invalidation.
class CoherenceLedger {
public:
  explicit CoherenceLedger(unsigned NumNodes)
      : InvSent(NumNodes, 0), AckReceived(NumNodes, 0) {}

  void invSent(unsigned Node) { ++InvSent[Node]; }
  void ackReceived(unsigned Node) { ++AckReceived[Node]; }

  /// \returns one message per node whose invalidations and acks disagree.
  std::vector<std::string> verify() const;

private:
  std::vector<std::uint64_t> InvSent;
  std::vector<std::uint64_t> AckReceived;
};

/// Cross-checks the directory's protocol bookkeeping against the L2 line
/// states (MachineConfig::Coherence): a line with an exclusive owner must
/// have exactly that owner as its only sharer and the owner's copy in state
/// Exclusive or Modified; a line without one must have every holder's copy
/// in state Shared. Appends one message per violation, capped.
void checkCoherenceStates(const Directory &Dir, const std::vector<Cache> &L2s,
                          std::vector<std::string> &Out);

/// Cross-checks the directory's sharer sets against the private L2 contents
/// in both directions: every recorded sharer must hold the line, and every
/// resident L2 line must be tracked for that node. Only meaningful for
/// private-L2 machines (the SNUCA flow never consults the directory).
/// Appends one message per mismatch to \p Out, capped with an ellipsis.
void checkDirectoryAgainstL2s(const Directory &Dir,
                              const std::vector<Cache> &L2s,
                              std::vector<std::string> &Out);

/// Conservation of off-chip request accounting: for each MC, the accesses
/// it serviced (\p PerMCAccesses) must equal the column sum of the
/// row-major [node][mc] \p NodeToMCTraffic table, and the table's grand
/// total must equal \p OffChipAccesses. Appends violations to \p Out.
void checkMcConservation(const std::vector<std::uint64_t> &PerMCAccesses,
                         const std::vector<std::uint64_t> &NodeToMCTraffic,
                         unsigned NumNodes, unsigned NumMCs,
                         std::uint64_t OffChipAccesses,
                         std::vector<std::string> &Out);

/// Conservation of line-level DRAM traffic under burst coalescing: every
/// off-chip access transfers exactly one line except burst transactions,
/// which transfer \p BurstLines lines across \p BurstTransactions trigger
/// accesses, so sum(\p PerMCLines) == \p OffChipAccesses -
/// \p BurstTransactions + \p BurstLines. With the coalescer off both burst
/// counters are zero and this degenerates to lines == accesses. Appends
/// violations to \p Out.
void checkBurstConservation(const std::vector<std::uint64_t> &PerMCLines,
                            std::uint64_t OffChipAccesses,
                            std::uint64_t BurstTransactions,
                            std::uint64_t BurstLines,
                            std::vector<std::string> &Out);

} // namespace offchip

#endif // OFFCHIP_CHECK_INVARIANTS_H
