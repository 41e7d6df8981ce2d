//===- api/ContentHash.cpp ------------------------------------------------===//

#include "api/ContentHash.h"

#include "api/Fields.h"
#include "support/Format.h"

#include <bit>
#include <cstring>
#include <type_traits>

using namespace offchip;

namespace {

/// Two FNV-1a-64 streams over the same bytes, seeded differently. A field
/// is its wire name, NUL-terminated, then its value: integers, bools and
/// enums as 8 little-endian bytes, doubles as their bit pattern, strings
/// and lists behind their length. Every name fixes its value's encoding,
/// so the byte stream decodes back to one field sequence and distinct
/// requests cannot produce the same bytes.
class HashStream {
public:
  template <typename T> void field(const char *Key, const T &V) {
    bytes(Key, std::strlen(Key) + 1);
    value(V);
  }

  CacheKey key() const { return {A, B}; }

private:
  void bytes(const void *Data, std::size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (std::size_t I = 0; I < Len; ++I) {
      A = (A ^ P[I]) * Prime;
      B = (B ^ P[I]) * Prime;
    }
  }
  void value(std::uint64_t V) {
    unsigned char Buf[8];
    for (int I = 0; I < 8; ++I)
      Buf[I] = static_cast<unsigned char>(V >> (8 * I));
    bytes(Buf, 8);
  }
  void value(unsigned V) { value(static_cast<std::uint64_t>(V)); }
  void value(bool V) { value(static_cast<std::uint64_t>(V ? 1 : 0)); }
  template <typename E>
    requires std::is_enum_v<E>
  void value(E V) {
    value(static_cast<std::uint64_t>(V));
  }
  void value(double V) { value(std::bit_cast<std::uint64_t>(V)); }
  void value(const std::string &S) {
    value(static_cast<std::uint64_t>(S.size()));
    bytes(S.data(), S.size());
  }
  void value(const std::vector<unsigned> &V) {
    value(static_cast<std::uint64_t>(V.size()));
    for (unsigned X : V)
      value(X);
  }

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
  // Request shape and workload, under their request wire names.
  H.field("method", R.Kind);
  H.field("mcs_per_cluster", R.MCsPerCluster);
  if (R.Workload.isApp()) {
    H.field("app", R.Workload.App);
    H.field("scale", R.Workload.SizeScale);
  } else {
    H.field("program", R.Workload.ProgramText);
  }
  // The machine: every keyed field of the wire list.
  visitConfigFields(R.Config, [&](const char *Key, const auto &V,
                                  FieldOpts Opts = {}) {
    if (Opts.Keyed)
      H.field(Key, V);
  });
  return H.key();
}
