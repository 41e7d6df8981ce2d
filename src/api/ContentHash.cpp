//===- api/ContentHash.cpp ------------------------------------------------===//

#include "api/ContentHash.h"

#include "support/Format.h"

#include <cstring>

using namespace offchip;

namespace {

/// Two FNV-1a-64 streams over the same bytes, seeded differently. Every
/// value is appended behind a one-byte field tag plus (for strings) an
/// explicit length, so the encoding is prefix-free per field and reordering
/// or merging fields can never produce the same byte stream.
class HashStream {
public:
  void bytes(const void *Data, std::size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (std::size_t I = 0; I < Len; ++I) {
      A = (A ^ P[I]) * Prime;
      B = (B ^ P[I]) * Prime;
    }
  }

  void u64(unsigned char Tag, std::uint64_t V) {
    bytes(&Tag, 1);
    unsigned char Buf[8];
    for (int I = 0; I < 8; ++I)
      Buf[I] = static_cast<unsigned char>(V >> (8 * I));
    bytes(Buf, 8);
  }

  void f64(unsigned char Tag, double V) {
    std::uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Tag, Bits);
  }

  void str(unsigned char Tag, const std::string &S) {
    u64(Tag, S.size());
    bytes(S.data(), S.size());
  }

  CacheKey key() const { return {A, B}; }

private:
  static constexpr std::uint64_t Prime = 0x100000001B3ull;
  std::uint64_t A = 0xCBF29CE484222325ull; // FNV offset basis
  std::uint64_t B = 0x6C62272E07BB0142ull; // FNV-128 basis low word
};

} // namespace

std::string CacheKey::str() const {
  return formatString("%016llx%016llx", static_cast<unsigned long long>(Hi),
                      static_cast<unsigned long long>(Lo));
}

CacheKey offchip::requestKey(const SimRequest &R) {
  HashStream H;

  // Request shape.
  H.u64(0x01, static_cast<std::uint64_t>(R.Kind));
  H.u64(0x02, R.MCsPerCluster);

  // Workload.
  if (R.Workload.isApp()) {
    H.str(0x10, R.Workload.App);
    H.f64(0x11, R.Workload.SizeScale);
  } else {
    H.str(0x12, R.Workload.ProgramText);
  }

  // Machine config — every result-affecting field, in declaration order.
  // Trace, CheckInvariants and CollectPhaseTimes are excluded on purpose:
  // they never change a simulated result (see MachineConfig's field
  // comments), so requests differing only in them share a cache key. The
  // legacy wire keys sim_threads, sim_window_batch and sim_replica_epochs
  // parse to nothing, so they cannot reach the key either.
  const MachineConfig &C = R.Config;
  H.u64(0x20, C.MeshX);
  H.u64(0x21, C.MeshY);
  H.u64(0x22, C.L1SizeBytes);
  H.u64(0x23, C.L1LineBytes);
  H.u64(0x24, C.L1Ways);
  H.u64(0x25, C.L1LatencyCycles);
  H.u64(0x26, C.L2SizeBytes);
  H.u64(0x27, C.L2LineBytes);
  H.u64(0x28, C.L2Ways);
  H.u64(0x29, C.L2LatencyCycles);
  H.u64(0x2A, C.SharedL2 ? 1 : 0);
  H.u64(0x2B, C.Noc.PerHopCycles);
  H.u64(0x2C, C.Noc.LinkBytes);
  H.u64(0x2D, C.NumMCs);
  H.u64(0x2E, static_cast<std::uint64_t>(C.Placement));
  H.u64(0x2F, C.Dram.Banks);
  H.u64(0x30, C.Dram.RowBufferBytes);
  H.u64(0x31, C.Dram.FrFcfsWindowRows);
  H.u64(0x32, C.Dram.Timing.RowHitCycles);
  H.u64(0x33, C.Dram.Timing.RowMissCycles);
  H.u64(0x34, C.BytesPerMC);
  H.u64(0x35, static_cast<std::uint64_t>(C.Granularity));
  H.u64(0x36, C.PageBytes);
  H.u64(0x37, static_cast<std::uint64_t>(C.PagePolicy));
  H.u64(0x38, C.ThreadsPerCore);
  H.u64(0x39, C.ComputeGapCycles);
  H.u64(0x3A, C.TransformOverheadCycles);
  H.u64(0x3B, C.DirectoryLatencyCycles);
  H.u64(0x3C, C.RequestBytes);
  H.u64(0x3D, C.OptimalScheme ? 1 : 0);
  H.u64(0x3E, C.Burst.Enabled ? 1 : 0);
  H.u64(0x3F, C.Burst.WindowAccesses);
  H.u64(0x40, C.Burst.MaxLines);
  H.u64(0x41, C.Dram.Timing.BurstBeatCycles);
  H.u64(0x42, static_cast<std::uint64_t>(C.Coherence.Protocol));
  H.u64(0x43, C.Coherence.SparseDirectory ? 1 : 0);
  H.u64(0x44, C.Coherence.SparseEntries);
  H.u64(0x45, C.Coherence.AckBytes);
  H.u64(0x46, C.Coherence.InvalidateBytes);
  // Explicit placement node list: length-prefixed so {1},{2} and {1,2} can
  // never collide. Hashed unconditionally (an empty list hashes as length
  // 0) — adding these tags bumped the pinned protocol hash in api_test.cpp
  // exactly once, instead of changing it again the first time a list is
  // actually set.
  H.u64(0x47, C.MCNodes.size());
  for (unsigned N : C.MCNodes)
    H.u64(0x48, N);

  return H.key();
}
