#include "store/topology_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/le_codec.h"

namespace mmlpt::store {

namespace {

// The tagged address both record kinds open with: a family tag (4 or
// 6), then 16 address bytes.
void put_addr(LeWriter& out, const net::IpAddress& addr) {
  out.u8(addr.family() == net::Family::kIpv6 ? 6 : 4);
  const auto& bytes = addr.bytes();
  out.bytes({reinterpret_cast<const char*>(bytes.data()), bytes.size()});
}

net::IpAddress get_addr(LeReader& in) {
  const auto family = in.u8();
  if (family != 4 && family != 6) {
    throw ParseError("topology store: bad address family tag");
  }
  const auto raw = in.bytes(16);
  net::IpAddress::Bytes bytes;
  std::memcpy(bytes.data(), raw.data(), bytes.size());
  if (family == 4) {
    return net::IpAddress(bytes[0], bytes[1], bytes[2], bytes[3]);
  }
  return net::IpAddress::v6(bytes);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw SystemError("topology store: " + what + ": " +
                    std::strerror(errno));
}

}  // namespace

std::string encode_snapshot(const TopologySnapshot& snapshot) {
  LeWriter payload;
  payload.u32(static_cast<std::uint32_t>(snapshot.hops.size()));
  for (const auto& hop : snapshot.hops) {
    put_addr(payload, hop.addr);
    payload.u16(static_cast<std::uint16_t>(hop.distance));
  }
  payload.u32(static_cast<std::uint32_t>(snapshot.destinations.size()));
  for (const auto& dest : snapshot.destinations) {
    put_addr(payload, dest.addr);
    payload.u16(static_cast<std::uint16_t>(dest.record.distance));
    payload.u64(dest.record.probes);
  }
  return std::move(payload).take();
}

TopologySnapshot decode_snapshot(std::string_view payload) {
  // Encoded record sizes: a tagged address (1 + 16 bytes), a u16
  // distance and, for a destination, a u64 probe count. A count is only
  // trusted as far as the bytes left could hold that many records, so a
  // corrupt u32 cannot drive a multi-gigabyte reserve.
  constexpr std::size_t kHopBytes = 19;
  constexpr std::size_t kDestinationBytes = 27;
  LeReader reader(payload, "topology store");
  TopologySnapshot snapshot;
  const auto hop_count = reader.u32();
  snapshot.hops.reserve(
      std::min<std::size_t>(hop_count, reader.remaining() / kHopBytes));
  // Braced initializers read their fields left to right.
  for (std::uint32_t i = 0; i < hop_count; ++i) {
    snapshot.hops.push_back({get_addr(reader), reader.u16()});
  }
  const auto dest_count = reader.u32();
  snapshot.destinations.reserve(std::min<std::size_t>(
      dest_count, reader.remaining() / kDestinationBytes));
  for (std::uint32_t i = 0; i < dest_count; ++i) {
    snapshot.destinations.push_back(
        {get_addr(reader), {reader.u16(), reader.u64()}});
  }
  reader.expect_end();
  return snapshot;
}

TopologyStore::LoadResult TopologyStore::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  LoadResult result;
  if (!in) return result;  // missing file: an empty store (first run)
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  if (data.size() < 8) {
    // A half-written header (crash during the very first append): there
    // is no valid prefix to keep, but the file is recoverable garbage,
    // not a foreign schema.
    result.truncated_tail = !data.empty();
    return result;
  }
  LeReader file(data, "topology store");
  if (file.u32() != kMagic) {
    throw TopologyError("topology store: bad magic in " + path);
  }
  if (const auto version = file.u32(); version != kVersion) {
    throw TopologyError("topology store: unsupported version " +
                        std::to_string(version) + " in " + path);
  }

  // Keep every block before the first damaged one: a block header or
  // payload cut short, a CRC mismatch, or a payload that does not decode
  // (a CRC collision with garbage) ends the valid prefix.
  try {
    while (file.remaining() > 0) {
      const auto length = file.u32();
      const auto checksum = file.u32();
      const auto payload = file.bytes(length);
      if (crc32(payload) != checksum) {
        throw ParseError("topology store: block CRC mismatch");
      }
      const TopologySnapshot block = decode_snapshot(payload);
      result.snapshot.hops.insert(result.snapshot.hops.end(),
                                  block.hops.begin(), block.hops.end());
      result.snapshot.destinations.insert(
          result.snapshot.destinations.end(), block.destinations.begin(),
          block.destinations.end());
      ++result.blocks;
    }
  } catch (const ParseError&) {
    result.truncated_tail = true;
  }
  return result;
}

void TopologyStore::append(const std::string& path,
                           const TopologySnapshot& delta) {
  if (delta.empty()) return;

  // O_RDWR so the existing header can be verified before appending;
  // O_APPEND so the block lands atomically at the end whatever other
  // readers are doing.
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT, 0644);
  if (fd < 0) throw_errno("cannot open " + path);
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};

  struct stat st{};
  if (::fstat(fd, &st) != 0) throw_errno("fstat " + path);
  LeWriter header;
  header.u32(kMagic);
  header.u32(kVersion);
  const std::string expected = std::move(header).take();
  LeWriter block;
  if (st.st_size == 0) {
    block.bytes(expected);  // the first append writes the header too
  } else {
    char existing[8];
    const ssize_t n = ::pread(fd, existing, sizeof existing, 0);
    if (n < 0) throw_errno("read header of " + path);
    if (std::string_view(existing, static_cast<std::size_t>(n)) != expected) {
      throw TopologyError(
          "topology store: refusing to append to foreign file " + path);
    }
  }
  const std::string payload = encode_snapshot(delta);
  block.u32(static_cast<std::uint32_t>(payload.size()));
  block.u32(crc32(payload));
  block.bytes(payload);
  const std::string out = std::move(block).take();

  // One write(2) per append: single-writer atomicity (a concurrent
  // reader sees whole blocks or a clean truncation, never interleaving).
  std::size_t written = 0;
  while (written < out.size()) {
    const ssize_t n =
        ::write(fd, out.data() + written, out.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("append to " + path);
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace mmlpt::store
