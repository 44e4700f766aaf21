//===- support/Hash.h - Structural 128-bit hashing --------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming 128-bit structural hasher for dedup keys that were
/// previously built as strings: the closure's cycle keys, and fault-plan
/// site decisions. (The dependency recorder's dedup is exact — a context
/// trie, igoodlock/LockDependency.h — and uses no hash key.)
/// Two independently seeded 64-bit lanes are mixed with the SplitMix64
/// finalizer; at 128 bits the collision probability for the at-most-millions
/// of keys an analysis produces is ~2^-85 per pair — treated as zero
/// (DESIGN.md records the stance). Not cryptographic, and not stable across
/// process runs by contract (today it is, but nothing may persist these).
///
//===----------------------------------------------------------------------===//

#ifndef DLF_SUPPORT_HASH_H
#define DLF_SUPPORT_HASH_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace dlf {

/// CRC-32 (the IEEE 802.3 polynomial, reflected 0xEDB88320) over \p Len
/// bytes at \p Data. This is the one hash in the tree that IS stable across
/// runs and toolchains by contract: the campaign journal persists it as a
/// per-record integrity tag, and external tools (e.g. Python's zlib.crc32)
/// must reproduce it bit-for-bit. Table-driven, built once on first use.
inline uint32_t crc32(const void *Data, size_t Len) {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xFFFFFFFFu;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  while (Len--)
    C = Table[(C ^ *P++) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

/// A 128-bit hash value with total ordering (used to pick canonical
/// rotations) and std::hash support (used as an unordered key).
struct Hash128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  friend constexpr bool operator==(const Hash128 &A, const Hash128 &B) {
    return A.Hi == B.Hi && A.Lo == B.Lo;
  }
  friend constexpr bool operator!=(const Hash128 &A, const Hash128 &B) {
    return !(A == B);
  }
  friend constexpr bool operator<(const Hash128 &A, const Hash128 &B) {
    return A.Hi != B.Hi ? A.Hi < B.Hi : A.Lo < B.Lo;
  }
};

/// Streaming hasher: feed 64-bit words, then finish(). Word boundaries are
/// significant (add(1),add(2) differs from add(2),add(1)), so callers frame
/// variable-length sequences by prefixing their length.
class Hasher128 {
public:
  void add(uint64_t V) {
    A = mix(A ^ (V * 0x94d049bb133111ebULL));
    B = mix(B + V + 0x9e3779b97f4a7c15ULL);
  }

  Hash128 finish() const { return {mix(A ^ (B << 1)), mix(B ^ (A >> 1))}; }

private:
  /// The SplitMix64 finalizer: full-avalanche 64-bit mixing.
  static constexpr uint64_t mix(uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }

  uint64_t A = 0x8764000b87645626ULL;
  uint64_t B = 0x61c8864680b583ebULL;
};

} // namespace dlf

namespace std {
template <> struct hash<dlf::Hash128> {
  size_t operator()(const dlf::Hash128 &H) const {
    // Lanes are already fully mixed; Lo alone is a uniform 64-bit value.
    return static_cast<size_t>(H.Lo);
  }
};
} // namespace std

#endif // DLF_SUPPORT_HASH_H
