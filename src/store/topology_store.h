// Persistent on-disk topology store backing the fleet stop set: what a
// survey discovered this run, durable for the next one, so a re-survey
// starts warm and Doubletree stopping has a frozen epoch to consult.
//
// File format (versioned binary, append-friendly, CRC-checked):
//
//   header:  u32 magic "MTPS"   u32 version
//   block*:  u32 payload_len    u32 crc32(payload)   payload bytes
//
// Every integer is little-endian, written and read with the shared
// LeWriter/LeReader and crc32 of common/le_codec.h (the daemon's frames
// use the same codec). A block's payload is one TopologySnapshot delta:
//
//   u32 hop_count    { u8 family(4|6)  16 addr bytes  u16 distance }*
//   u32 dest_count   { u8 family  16 addr bytes  u16 distance  u64 probes }*
//
// Appends are a single O_APPEND write(2) (header included when the file
// is empty), giving single-writer atomicity: a reader — or a crash —
// never observes a half-interleaved block, only a possibly truncated
// tail. load() therefore keeps every block whose length and CRC check
// out and stops at the first damaged one (truncated_tail reports it);
// only a bad header (wrong magic or version) is a hard error, because it
// means the file is not ours or a schema we cannot decode.
#ifndef MMLPT_STORE_TOPOLOGY_STORE_H
#define MMLPT_STORE_TOPOLOGY_STORE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/stop_set.h"
#include "net/ip_address.h"

namespace mmlpt::store {

/// One confirmed (interface, distance) pair.
struct HopRecord {
  net::IpAddress addr;
  int distance = 0;

  friend bool operator==(const HopRecord&, const HopRecord&) = default;
  friend auto operator<=>(const HopRecord&, const HopRecord&) = default;
};

/// A destination's full-trace record, keyed by its address.
struct DestinationEntry {
  net::IpAddress addr;
  core::DestinationRecord record;

  friend bool operator==(const DestinationEntry&,
                         const DestinationEntry&) = default;
};

/// A set of discoveries: a whole store when loaded, a run's delta when
/// appended.
struct TopologySnapshot {
  std::vector<HopRecord> hops;
  std::vector<DestinationEntry> destinations;

  [[nodiscard]] bool empty() const noexcept {
    return hops.empty() && destinations.empty();
  }
};

/// Serialize / parse one block payload. decode throws ParseError on any
/// structural violation (bad family tag, short buffer, trailing bytes).
[[nodiscard]] std::string encode_snapshot(const TopologySnapshot& snapshot);
[[nodiscard]] TopologySnapshot decode_snapshot(std::string_view payload);

class TopologyStore {
 public:
  static constexpr std::uint32_t kMagic = 0x5350544DU;  // "MTPS" LE
  static constexpr std::uint32_t kVersion = 1;

  struct LoadResult {
    TopologySnapshot snapshot;  ///< union of every intact block
    std::size_t blocks = 0;     ///< intact blocks decoded
    /// Damaged or half-written data followed the last intact block; it
    /// was ignored (the valid prefix loaded fine).
    bool truncated_tail = false;
  };

  /// Load a store file. A missing file is an empty store (first run);
  /// wrong magic or version throws TopologyError; a damaged tail is
  /// recovered from by keeping the valid prefix.
  [[nodiscard]] static LoadResult load(const std::string& path);

  /// Append one delta block (creating file + header when absent) as a
  /// single O_APPEND write. Empty deltas are skipped. Throws SystemError
  /// on I/O failure and TopologyError when the existing file's header is
  /// not ours (appending would corrupt someone else's data).
  ///
  /// Concurrency: appends to an EXISTING file are atomic with respect to
  /// each other (one write(2) each, kernel-serialized under O_APPEND).
  /// Header creation is the one non-concurrent step — racing first
  /// appends on a missing file may duplicate it. Sessions load the store
  /// before their single append-at-exit, so this never arises in normal
  /// use.
  static void append(const std::string& path,
                     const TopologySnapshot& delta);
};

}  // namespace mmlpt::store

#endif  // MMLPT_STORE_TOPOLOGY_STORE_H
