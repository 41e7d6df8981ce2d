//===- cache/Directory.h - L2 tag directory ---------------------*- C++ -*-===//
///
/// \file
/// The centralized L2 tag directory of the private-L2 flow (Figure 2a): it is
/// cached at the memory controller owning each line and records which private
/// L2s hold a copy, so an L2 miss can be satisfied by another on-chip L2
/// instead of DRAM.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_CACHE_DIRECTORY_H
#define OFFCHIP_CACHE_DIRECTORY_H

#include "support/FlatMap.h"

#include <cassert>
#include <cstdint>

namespace offchip {

/// Sharer tracking for up to 64 nodes per line. Backed by an open-addressing
/// flat map (support/FlatMap.h): the directory is consulted on every L2
/// miss, and the node-per-entry std::unordered_map it replaced dominated
/// that path's cache misses.
class Directory {
public:
  explicit Directory(unsigned NumNodes) : NumNodes(NumNodes) {
    assert(NumNodes <= 64 && "directory supports up to 64 nodes");
    // A run of the scaled machine tracks tens of thousands of lines; start
    // past the cheap doublings.
    Lines.reserve(1 << 14);
  }

  /// \returns a node currently holding \p LineAddr, or -1 if none.
  int findSharer(std::uint64_t LineAddr) const;

  /// \returns a node holding \p LineAddr other than \p Node, or -1 if none.
  /// Under coherence a requester must never be forwarded to itself.
  int findSharerExcept(std::uint64_t LineAddr, unsigned Node) const;

  /// Records that \p Node now holds the line.
  void addSharer(std::uint64_t LineAddr, unsigned Node);

  /// Records that \p Node dropped the line (e.g. L2 eviction).
  void removeSharer(std::uint64_t LineAddr, unsigned Node);

  /// Full sharer bitmask of \p LineAddr (0 when untracked). Bit i = node i.
  std::uint64_t sharerMask(std::uint64_t LineAddr) const;

  /// Exclusive (E/M) owner of \p LineAddr, or -1 when the line has no
  /// exclusive holder. Maintained only under coherence.
  int exclusiveOwner(std::uint64_t LineAddr) const;

  /// Marks \p Node the exclusive owner of \p LineAddr.
  void setExclusive(std::uint64_t LineAddr, unsigned Node);

  /// Drops any exclusive-owner record for \p LineAddr (downgrade to S).
  void clearExclusive(std::uint64_t LineAddr);

  /// True when the line has a tracked (possibly empty-mask) entry.
  bool tracksLine(std::uint64_t LineAddr) const;

  /// Erases every record of \p LineAddr (sparse-directory entry eviction).
  /// Must not run inside forEachLine.
  void eraseLine(std::uint64_t LineAddr);

  /// Sparse mode: true when the directory already tracks \p Capacity lines,
  /// so tracking a new one requires evicting an entry first.
  bool atCapacity(std::uint64_t Capacity) const {
    return Lines.size() >= Capacity;
  }

  /// Sparse mode: deterministic victim entry — the first tracked line at or
  /// after a rotating cursor over the map's slot array. The cursor advances
  /// on every pick so repeated evictions cycle through the table instead of
  /// hammering one slot. \returns false when the directory is empty.
  bool pickVictim(std::uint64_t *LineAddr);

  std::uint64_t trackedLines() const { return Lines.size(); }

  /// True when \p Node is recorded as holding \p LineAddr. No LRU or
  /// statistics side effects; used by the invariant checker (src/check).
  bool hasSharer(std::uint64_t LineAddr, unsigned Node) const;

  /// Invokes \p Fn(LineAddr, SharerMask) for every tracked line with a
  /// non-empty sharer set (unspecified order). Bit i of the mask is node i.
  template <typename FnT> void forEachLine(FnT Fn) const {
    Lines.forEach([&Fn](std::uint64_t Line, std::uint64_t Mask) {
      if (Mask != 0)
        Fn(Line, Mask);
    });
  }

private:
  unsigned NumNodes;
  FlatMap64 Lines;
  /// Line -> exclusive owner node (coherence only). Kept out of the sharer
  /// mask so the coherence-free flow pays nothing for it.
  FlatMap64 Excl;
  /// Rotating slot cursor for pickVictim.
  std::size_t VictimCursor = 0;
};

} // namespace offchip

#endif // OFFCHIP_CACHE_DIRECTORY_H
