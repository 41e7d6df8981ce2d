//===- api/ContentHash.h - Canonical request content hash -------*- C++ -*-===//
///
/// \file
/// The content-addressing scheme of the result cache: a 128-bit hash over
/// the canonical encoding of (workload, machine config, mapping choice).
/// Two requests get the same key exactly when the simulator is guaranteed
/// to produce identical results for them, so:
///
///   - every result-affecting field is hashed, each behind a distinct field
///     tag (so field values can never alias across fields);
///   - result-invariant execution knobs — tracing, invariant checking,
///     phase timers, the client id — are deliberately NOT hashed, letting
///     e.g. a traced request reuse a cached untraced result.
///
/// The hash is two independently-seeded FNV-1a-64 streams over the same
/// canonical bytes; 128 bits keeps accidental collisions out of reach of
/// any realistic cache population.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_CONTENTHASH_H
#define OFFCHIP_API_CONTENTHASH_H

#include "api/Request.h"

#include <cstdint>
#include <functional>
#include <string>

namespace offchip {

/// A 128-bit content key.
struct CacheKey {
  std::uint64_t Hi = 0;
  std::uint64_t Lo = 0;

  bool operator==(const CacheKey &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const CacheKey &O) const { return !(*this == O); }

  /// 32 hex digits, for logs and the wire protocol's "key" field.
  std::string str() const;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey &K) const {
    return static_cast<std::size_t>(K.Hi ^ (K.Lo * 0x9E3779B97F4A7C15ull));
  }
};

/// The canonical content hash of \p R (see file comment for what is and is
/// not covered).
CacheKey requestKey(const SimRequest &R);

} // namespace offchip

#endif // OFFCHIP_API_CONTENTHASH_H
